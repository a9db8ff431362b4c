//! The `LKH1` bytes move only on purpose: a fixed batch encodes to a pinned
//! digest however it is batched, a file of bit-packed integer chunks is
//! still written byte for byte, and a file written before integers were
//! packed (plain integers, plain dictionary codes) still reads.

use lakehouse_checksum::crc32c;
use lakehouse_columnar::{Bitmap, Column, DataType, DictColumn, Field, RecordBatch, Schema};
use lakehouse_format::{FileWriter, RangedReader, WriterOptions};

/// `n` rows over every type, nullable and not: strings that dictionary-
/// encode on disk, strings that stay plain, and a column that is already
/// dictionary-encoded in memory — from a fixed LCG.
fn golden_batch(n: usize) -> RecordBatch {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let cities = ["lisbon", "", "oslo", "quito", "perth"];
    let (mut id, mut count, mut fare, mut tip) = (vec![], vec![], vec![], vec![]);
    let (mut at, mut day, mut flag) = (vec![], vec![], vec![]);
    let (mut city, mut note, mut lane) = (vec![], vec![], vec![]);
    for i in 0..n {
        let r = next();
        id.push(i as i64 * 7 - 3);
        count.push((r % 5 != 0).then_some((r % 9) as i64 - 4));
        fare.push((r % 10_000) as f64 / 100.0 - 20.0);
        tip.push((r % 11 != 0).then_some((r % 777) as f64 / 7.0));
        at.push((r % 13 != 0).then_some(1_554_076_800_000_000 + (r % 86_400) as i64 * 1_000_003));
        day.push(17_900 + (r % 400) as i32 - 200);
        flag.push((r % 6 != 0).then_some(r % 3 == 0));
        city.push((r % 7 != 0).then_some(cities[(r % 5) as usize]));
        note.push(format!("n{:x}-{i}", r % 4096));
        lane.push(format!("lane-{}", r % 3));
    }
    let lane_nulls: Vec<bool> = (0..n).map(|i| i % 10 != 9).collect();
    let lane = DictColumn::encode(&lane, Some(Bitmap::from_bools(&lane_nulls))).expect("encode");
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("count", DataType::Int64, true),
            Field::new("fare", DataType::Float64, false),
            Field::new("tip", DataType::Float64, true),
            Field::new("at", DataType::Timestamp, true),
            Field::new("day", DataType::Date, false),
            Field::new("flag", DataType::Bool, true),
            Field::new("city", DataType::Utf8, true),
            Field::new("note", DataType::Utf8, false),
            Field::new("lane", DataType::Utf8, true),
        ]),
        vec![
            Column::from_i64(id),
            Column::from_opt_i64(count),
            Column::from_f64(fare),
            Column::from_opt_f64(tip),
            Column::from_opt_timestamp(at),
            Column::from_date(day),
            Column::from_opt_bool(flag),
            Column::from_opt_str(city),
            Column::from_str_vec(note),
            Column::Dict(lane),
        ],
    )
    .expect("golden batch")
}

/// Write `input` cut into pieces of the given sizes (cycled).
fn write_in_pieces(input: &RecordBatch, group_rows: usize, sizes: &[usize]) -> Vec<u8> {
    let options = WriterOptions {
        row_group_rows: group_rows,
    };
    let mut w = FileWriter::new(input.schema().clone(), options);
    let (mut offset, mut i) = (0, 0);
    while offset < input.num_rows() {
        let len = sizes[i % sizes.len()].min(input.num_rows() - offset);
        w.write_batch(&input.slice(offset, len).expect("slice"))
            .expect("write");
        offset += len;
        i += 1;
    }
    w.finish().expect("finish").0.to_vec()
}

/// Length and CRC32C of `golden_batch(3000)` in 1 024-row groups, with
/// integer chunks and dictionary codes bit-packed (198 531 bytes while
/// they were plain).
const GOLDEN: (usize, u32) = (121_395, 2_285_503_204);

#[test]
fn every_type_encodes_to_the_parents_bytes_however_it_is_batched() {
    let input = golden_batch(3_000);
    let whole = write_in_pieces(&input, 1_024, &[3_000]);
    assert_eq!((whole.len(), crc32c(&whole)), GOLDEN);
    // Batch boundaries inside, on and past a group's end: whole groups are
    // encoded from row ranges, the rest through the pending buffer.
    assert!(write_in_pieces(&input, 1_024, &[700, 1_000, 24, 1_276]) == whole);
    assert!(write_in_pieces(&input, 1_024, &[1_024, 1, 2_047, 0, 5]) == whole);
    assert!(write_in_pieces(&input, 1_024, &[1]) == whole);
    let back = RangedReader::parse(whole.into()).expect("parse");
    assert_eq!(back.num_row_groups(), 3);
    assert_eq!(back.read_all(None).expect("read"), input);
}

/// Reads `file` whole and by ranges, as `golden_batch(50)`.
fn reads_as_the_golden_batch(file: &[u8]) {
    let want = golden_batch(50);
    let reader = RangedReader::parse(file.to_vec().into()).expect("parse");
    assert_eq!(reader.num_row_groups(), 4);
    assert_eq!(reader.read_all(None).expect("read"), want);
    let bytes = bytes::Bytes::from(file.to_vec());
    let fetch = |start: usize, end: usize| Ok(bytes.slice(start..end));
    let ranged = RangedReader::open(file.len(), &fetch).expect("open");
    let groups: Vec<usize> = (0..ranged.num_row_groups()).collect();
    let projection = [9, 0, 4];
    let got = ranged
        .read_groups(&groups, Some(&projection), &fetch)
        .expect("read");
    assert_eq!(got, want.project(&["lane", "id", "at"]).expect("project"));
}

#[test]
fn a_file_the_parent_wrote_still_reads() {
    // `golden_batch(50)` in 16-row groups, written while every integer and
    // dictionary code was plain: the compatibility check for those chunks.
    let file: &[u8] = include_bytes!("data/golden_pr20.lkh");
    reads_as_the_golden_batch(file);
}

#[test]
fn a_packed_file_is_still_written_and_still_reads() {
    // `golden_batch(50)` in 16-row groups, integers and codes bit-packed.
    let file: &[u8] = include_bytes!("data/golden_pr37.lkh");
    let want = golden_batch(50);
    assert_eq!(
        write_in_pieces(&want, 16, &[50]),
        file,
        "and is still written"
    );
    reads_as_the_golden_batch(file);
    assert!(file.len() < include_bytes!("data/golden_pr20.lkh").len());
}

#[test]
fn a_plain_file_compacted_with_new_rows_is_a_mixed_file_that_reads_equal() {
    // What compaction does to a file written before integers were packed:
    // its three full groups go over as their bytes, and its 2-row tail and
    // 30 new rows are encoded afresh, so packed.
    let plain = bytes::Bytes::from_static(include_bytes!("data/golden_pr20.lkh"));
    let fetch = |start: usize, end: usize| Ok(plain.slice(start..end));
    let reader = RangedReader::open(plain.len(), &fetch).expect("open");
    let groups: Vec<usize> = (0..reader.num_row_groups()).collect();
    let fetched = (reader.chunks(&groups, None))
        .and_then(|chunks| reader.fetch_chunks(&chunks, &fetch))
        .expect("fetch");
    let all = golden_batch(80);
    let options = WriterOptions { row_group_rows: 16 };
    let mut writer = FileWriter::new(all.schema().clone(), options.clone());
    for g in 0..3 {
        let raw = reader.raw_group(&fetched, g).expect("raw group");
        writer.copy_group(&raw).expect("copy");
    }
    let tail = reader.decode_groups(&fetched, &[3], None).expect("tail");
    writer.write_batch(&tail).expect("write tail");
    writer
        .write_batch(&all.slice(50, 30).expect("slice"))
        .expect("write new rows");
    let mixed = writer.finish().expect("finish").0;

    let back = RangedReader::parse(mixed.clone()).expect("parse");
    assert_eq!(back.num_row_groups(), 5);
    assert_eq!(back.read_all(None).expect("read"), all);
    // The copied groups are the plain file's chunks byte for byte; a
    // rewrite of every row would have packed them.
    let plain_reader = RangedReader::parse(plain.clone()).expect("parse plain");
    for g in 0..3 {
        let chunks = |r: &RangedReader, file: &[u8]| -> Vec<Vec<u8>> {
            (r.row_group_meta(g).chunk_offsets.iter())
                .map(|&(at, len)| file[at as usize..(at + len) as usize].to_vec())
                .collect()
        };
        assert_eq!(chunks(&back, &mixed), chunks(&plain_reader, &plain));
    }
    let rewritten = FileWriter::write_file(&all, options).expect("rewrite");
    assert!(rewritten.len() < mixed.len());
}
