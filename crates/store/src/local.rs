//! Local-filesystem object store backend.

use crate::error::{Result, StoreError};
use crate::path::ObjectPath;
use crate::ObjectStore;
use bytes::Bytes;
use parking_lot::Mutex;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An object store rooted at a local directory. Object paths map directly to
/// relative file paths under the root. A coarse mutex serializes CAS puts
/// (the local backend is for development, not contention benchmarks).
#[derive(Debug)]
pub struct LocalFsStore {
    root: PathBuf,
    cas_lock: Mutex<()>,
}

impl LocalFsStore {
    /// Create (and make) the root directory.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(LocalFsStore {
            root,
            cas_lock: Mutex::new(()),
        })
    }

    fn fs_path(&self, path: &ObjectPath) -> PathBuf {
        self.root.join(path.as_str())
    }
}

impl ObjectStore for LocalFsStore {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        let fp = self.fs_path(path);
        if let Some(parent) = fp.parent() {
            fs::create_dir_all(parent)?;
        }
        // Write-then-rename for atomicity against concurrent readers. Every
        // put writes its own temp file — appended to the whole name, so
        // `x.json` and `x.lkh` never share one — or two concurrent puts of a
        // path would rename each other's half-written file away.
        static PUTS: AtomicU64 = AtomicU64::new(0);
        let mut tmp = fp.clone().into_os_string();
        let n = PUTS.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".tmp.{}.{n}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, &data)?;
        fs::rename(&tmp, &fp)?;
        Ok(())
    }

    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        match fs::read(self.fs_path(path)) {
            Ok(data) => Ok(Bytes::from(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(path.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Seek and read only `[start, end)`: a footer or one column chunk of a
    /// data file costs its own bytes, not the whole file.
    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        let mut file = match fs::File::open(self.fs_path(path)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(path.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len() as usize;
        if start > end || end > len {
            return Err(StoreError::InvalidRange { start, end, len });
        }
        let mut buf = vec![0u8; end - start];
        file.seek(SeekFrom::Start(start as u64))?;
        file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    fn head(&self, path: &ObjectPath) -> Result<usize> {
        match fs::metadata(self.fs_path(path)) {
            Ok(m) if m.is_file() => Ok(m.len() as usize),
            Ok(_) => Err(StoreError::NotFound(path.to_string())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(path.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            for entry in entries {
                let entry = entry?;
                let ft = entry.file_type()?;
                if ft.is_dir() {
                    stack.push(entry.path());
                } else if ft.is_file() {
                    let rel = entry
                        .path()
                        .strip_prefix(&self.root)
                        .map_err(|_| StoreError::InvalidPath(entry.path().display().to_string()))?
                        .to_string_lossy()
                        .replace('\\', "/");
                    if let Ok(op) = ObjectPath::new(rel) {
                        if op.has_prefix(prefix) {
                            out.push(op);
                        }
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn delete(&self, path: &ObjectPath) -> Result<()> {
        match fs::remove_file(self.fs_path(path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(path.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> Result<()> {
        let _guard = self.cas_lock.lock();
        let current = match self.get(path) {
            Ok(b) => Some(b),
            Err(StoreError::NotFound(_)) => None,
            Err(e) => return Err(e),
        };
        let matches = match (&current, expected) {
            (None, None) => true,
            (Some(cur), Some(exp)) => cur.as_ref() == exp,
            _ => false,
        };
        if !matches {
            return Err(StoreError::PreconditionFailed(path.to_string()));
        }
        self.put(path, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> LocalFsStore {
        let dir = std::env::temp_dir().join(format!(
            "lakehouse_store_test_{}_{}",
            tag,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        LocalFsStore::new(dir).unwrap()
    }

    fn p(s: &str) -> ObjectPath {
        ObjectPath::new(s).unwrap()
    }

    #[test]
    fn put_get_nested() {
        let s = tmp_store("nested");
        s.put(&p("a/b/c.bin"), Bytes::from_static(b"data")).unwrap();
        assert_eq!(s.get(&p("a/b/c.bin")).unwrap().as_ref(), b"data");
        assert_eq!(s.head(&p("a/b/c.bin")).unwrap(), 4);
    }

    #[test]
    fn missing_not_found() {
        let s = tmp_store("missing");
        assert!(matches!(s.get(&p("nope")), Err(StoreError::NotFound(_))));
        assert!(matches!(s.delete(&p("nope")), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn list_prefix() {
        let s = tmp_store("list");
        for k in ["t/one", "t/two", "u/three"] {
            s.put(&p(k), Bytes::new()).unwrap();
        }
        let l = s.list("t").unwrap();
        assert_eq!(
            l.iter().map(ObjectPath::as_str).collect::<Vec<_>>(),
            vec!["t/one", "t/two"]
        );
    }

    #[test]
    fn cas_behaviour() {
        let s = tmp_store("cas");
        s.put_if_matches(&p("ref"), None, Bytes::from_static(b"v1"))
            .unwrap();
        assert!(s
            .put_if_matches(&p("ref"), None, Bytes::from_static(b"v2"))
            .is_err());
        s.put_if_matches(&p("ref"), Some(b"v1"), Bytes::from_static(b"v2"))
            .unwrap();
        assert_eq!(s.get(&p("ref")).unwrap().as_ref(), b"v2");
    }

    #[test]
    fn get_range_matches_in_memory_store() {
        let fs_store = tmp_store("range");
        let mem = crate::InMemoryStore::new();
        let body = Bytes::from_static(b"0123456789");
        fs_store.put(&p("d/f.bin"), body.clone()).unwrap();
        mem.put(&p("d/f.bin"), body).unwrap();
        // In bounds, empty, whole object, out of bounds, inverted, missing.
        let cases = [(2, 5), (0, 0), (10, 10), (0, 10), (4, 11), (11, 12), (6, 3)];
        for (start, end) in cases {
            let got = fs_store.get_range(&p("d/f.bin"), start, end);
            let want = mem.get_range(&p("d/f.bin"), start, end);
            match (got, want) {
                (Ok(g), Ok(w)) => assert_eq!(g, w, "[{start}, {end})"),
                (
                    Err(StoreError::InvalidRange {
                        start: gs,
                        end: ge,
                        len: gl,
                    }),
                    Err(StoreError::InvalidRange {
                        start: ws,
                        end: we,
                        len: wl,
                    }),
                ) => assert_eq!((gs, ge, gl), (ws, we, wl)),
                (g, w) => panic!("[{start}, {end}): local {g:?} vs memory {w:?}"),
            }
        }
        assert!(matches!(
            fs_store.get_range(&p("nope"), 0, 1),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            mem.get_range(&p("nope"), 0, 1),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn concurrent_puts_each_write_their_own_temp_file() {
        let s = tmp_store("concurrent");
        let body = |t: u8| Bytes::from(vec![t; 4096]);
        // Eight writers of one path, then two of names that differ only by
        // extension: every put lands, and each path keeps one whole body.
        for names in [&["one/path"; 8][..], &["x.json", "x.lkh"]] {
            let failed: usize = std::thread::scope(|scope| {
                let writers: Vec<_> = (0u8..)
                    .zip(names)
                    .map(|(t, name)| {
                        let s = &s;
                        scope.spawn(move || {
                            (0..200)
                                .filter(|_| s.put(&p(name), body(t)).is_err())
                                .count()
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert_eq!(failed, 0, "concurrent puts of {names:?} failed");
        }
        let left = s.get(&p("one/path")).unwrap();
        assert!((0..8).any(|t| left == body(t)), "a torn body was left");
        assert_eq!(s.get(&p("x.json")).unwrap(), body(0));
        assert_eq!(s.get(&p("x.lkh")).unwrap(), body(1));
    }

    #[test]
    fn overwrite_replaces() {
        let s = tmp_store("overwrite");
        s.put(&p("k"), Bytes::from_static(b"old")).unwrap();
        s.put(&p("k"), Bytes::from_static(b"new")).unwrap();
        assert_eq!(s.get(&p("k")).unwrap().as_ref(), b"new");
    }
}
