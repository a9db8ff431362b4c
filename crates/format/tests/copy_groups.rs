//! Row groups copied as bytes: a full group appended by
//! `FileWriter::copy_group` is the group `write_batch` of its rows writes, a
//! chunk whose checksum fails is never copied, and a group is copied only
//! where `write_batch` would cut exactly it. A batch decoded with its chunks
//! (`decode_groups_copyable`) is written as them where nothing is pending
//! and its groups fit the cut.

use bytes::Bytes;
use lakehouse_columnar::{Column, DataType, DictColumn, Field, RecordBatch, Schema};
use lakehouse_format::{Copied, FileWriter, FormatError, RangedReader, Result, WriterOptions};

const GROUP: usize = 1_000;

fn options() -> WriterOptions {
    WriterOptions {
        row_group_rows: GROUP,
    }
}

/// `n` rows over every type, strings held as in-memory dictionaries, so a
/// file written from them carries one dictionary in every chunk.
fn dict_batch(n: usize) -> RecordBatch {
    let mut x = 0x5DEE_CE66_D1CE_4E5Bu64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let zones = ["midtown", "harlem", "soho", "astoria", "jfk"];
    let (mut count, mut fare, mut at, mut day, mut flag) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut zone, mut zone_valid, mut note) = (vec![], vec![], vec![]);
    for i in 0..n {
        let r = next();
        count.push((r % 5 != 0).then_some((r % 9) as i64 - 4));
        fare.push((r % 10_000) as f64 / 100.0);
        at.push(1_554_076_800_000_000 + (r % 86_400) as i64 * 1_000_003);
        day.push(17_900 + (r % 60) as i32);
        flag.push((r % 6 != 0).then_some(r % 3 == 0));
        zone.push(zones[(r % 5) as usize].to_string());
        zone_valid.push(r % 7 != 0);
        note.push(format!("n{:x}-{i}", r % 4096));
    }
    let zone = DictColumn::encode(
        &zone,
        Some(lakehouse_columnar::Bitmap::from_bools(&zone_valid)),
    );
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("count", DataType::Int64, true),
            Field::new("fare", DataType::Float64, false),
            Field::new("at", DataType::Timestamp, false),
            Field::new("day", DataType::Date, false),
            Field::new("flag", DataType::Bool, true),
            Field::new("zone", DataType::Utf8, true),
            Field::new("note", DataType::Utf8, false),
        ]),
        vec![
            Column::from_i64((0..n as i64).collect()),
            Column::from_opt_i64(count),
            Column::from_f64(fare),
            Column::from_timestamp(at),
            Column::from_date(day),
            Column::from_opt_bool(flag),
            Column::Dict(zone.unwrap()),
            Column::Dict(DictColumn::encode(&note, None).unwrap()),
        ],
    )
    .unwrap()
}

/// A reader over `file` with every chunk of every group fetched.
fn open_all(file: &Bytes) -> (RangedReader, lakehouse_format::FetchedChunks) {
    let fetch = |s: usize, e: usize| -> Result<Bytes> { Ok(file.slice(s..e)) };
    let reader = RangedReader::open(file.len(), &fetch).unwrap();
    let groups: Vec<usize> = (0..reader.num_row_groups()).collect();
    let chunks = reader.chunks(&groups, None).unwrap();
    let fetched = reader.fetch_chunks(&chunks, &fetch).unwrap();
    (reader, fetched)
}

/// Three full groups and a 417-row tail.
fn source() -> (RecordBatch, Bytes) {
    let head = dict_batch(3 * GROUP + 417);
    let file = FileWriter::write_file(&head, options()).unwrap();
    (head, file)
}

#[test]
fn copied_groups_and_the_decoded_rest_are_the_file_a_rewrite_writes() {
    let all = dict_batch(3 * GROUP + 417 + 2_600);
    let source_rows = 3 * GROUP + 417;
    let (head, rest) = (
        all.slice(0, source_rows).unwrap(),
        all.slice(source_rows, 2_600).unwrap(),
    );
    let file = FileWriter::write_file(&head, options()).unwrap();
    let (reader, fetched) = open_all(&file);
    assert_eq!(reader.num_row_groups(), 4);

    let mut writer = FileWriter::new(head.schema().clone(), options());
    let mut g = 0;
    while g < reader.num_row_groups()
        && writer.copies(reader.schema(), reader.row_group_meta(g).row_count)
    {
        writer
            .copy_group(&reader.raw_group(&fetched, g).unwrap())
            .unwrap();
        g += 1;
    }
    assert_eq!(g, 3, "the 417-row tail is not a full group");
    let tail = reader.decode_groups(&fetched, &[3], None).unwrap();
    writer.write_batch(&tail).unwrap();
    writer.write_batch(&rest).unwrap();
    let chunk_bytes: u64 = (0..3)
        .flat_map(|g| reader.row_group_meta(g).chunk_offsets.clone())
        .map(|(_, len)| len)
        .sum();
    let want_copied = Copied {
        groups: 3,
        rows: 3 * GROUP as u64,
        bytes: chunk_bytes,
    };
    assert_eq!(writer.copied(), want_copied);
    assert_eq!(writer.num_rows(), all.num_rows() as u64);
    let (copied, stats) = writer.finish().unwrap();

    // What decoding the file, appending the rest and writing it all gives.
    let decoded = RangedReader::parse(file).unwrap().read_all(None).unwrap();
    let rewritten = RecordBatch::concat(&[decoded, rest]).unwrap();
    let mut rewriter = FileWriter::new(head.schema().clone(), options());
    rewriter.write_batch(&rewritten).unwrap();
    let (want, want_stats) = rewriter.finish().unwrap();
    assert!(copied == want, "copied file differs from the rewrite");
    assert_eq!(stats, want_stats);
    let read = RangedReader::parse(copied).unwrap().read_all(None).unwrap();
    assert_eq!(read, all);
}

#[test]
fn a_flipped_byte_in_a_source_chunk_is_typed_corruption_and_nothing_is_copied() {
    let (head, file) = source();
    let (clean, _) = open_all(&file);
    // One byte in the middle of group 1's third chunk.
    let (offset, len) = clean.row_group_meta(1).chunk_offsets[2];
    let mut bytes = file.to_vec();
    bytes[(offset + len / 2) as usize] ^= 0x10;
    let flipped = Bytes::from(bytes);
    let (reader, fetched) = open_all(&flipped);

    let mut writer = FileWriter::new(head.schema().clone(), options());
    writer
        .copy_group(&reader.raw_group(&fetched, 0).unwrap())
        .unwrap();
    let err = reader
        .raw_group(&fetched, 1)
        .and_then(|group| writer.copy_group(&group))
        .unwrap_err();
    assert!(matches!(err, FormatError::Corrupted(_)), "got {err:?}");
    assert_eq!(writer.num_rows(), GROUP as u64, "only group 0 went in");
    assert_eq!(writer.copied().groups, 1);
    // The writer is whole: what it holds reads back as group 0's rows.
    let out = RangedReader::parse(writer.finish().unwrap().0).unwrap();
    assert_eq!(out.read_all(None).unwrap(), head.slice(0, GROUP).unwrap());
}

#[test]
fn a_partial_group_a_pending_writer_or_another_schema_is_not_copied() {
    let (head, file) = source();
    let (reader, fetched) = open_all(&file);
    let schema = head.schema().clone();
    let refused = |writer: &mut FileWriter, g: usize| {
        let rows = reader.row_group_meta(g).row_count;
        assert!(!writer.copies(reader.schema(), rows));
        let before = writer.num_rows();
        let err = (writer.copy_group(&reader.raw_group(&fetched, g).unwrap())).unwrap_err();
        assert!(
            matches!(err, FormatError::InvalidArgument(_)),
            "got {err:?}"
        );
        assert_eq!(writer.num_rows(), before);
        assert_eq!(writer.copied(), Copied::default());
    };
    // The 417-row tail.
    refused(&mut FileWriter::new(schema.clone(), options()), 3);
    // A full group, but rows are pending: the cut would fall elsewhere.
    let mut pending = FileWriter::new(schema.clone(), options());
    pending.write_batch(&head.slice(0, 10).unwrap()).unwrap();
    refused(&mut pending, 0);
    // A writer that cuts groups of another size.
    let half = WriterOptions {
        row_group_rows: GROUP / 2,
    };
    refused(&mut FileWriter::new(schema.clone(), half), 0);
    // Another schema: a renamed column, or one column fewer.
    let mut fields = schema.fields().to_vec();
    fields[1] = Field::new("n", DataType::Int64, true);
    refused(
        &mut FileWriter::new(Schema::new(fields.clone()), options()),
        0,
    );
    fields.pop();
    refused(&mut FileWriter::new(Schema::new(fields), options()), 0);
}

#[test]
fn a_decoded_batch_is_written_as_its_chunks_where_they_fit() {
    let (head, file) = source();
    let (reader, fetched) = open_all(&file);
    // `fare` and `id`, in that order, of every group.
    let batch = (reader.decode_groups_copyable(&fetched, &[0, 1, 2, 3], Some(&[2, 0]))).unwrap();
    let schema = batch.schema().clone();
    let mut writer = FileWriter::new(schema.clone(), options());
    writer.write_batch(&batch).unwrap();
    assert_eq!((writer.copied().groups, writer.groups_encoded()), (4, 0));
    let out = RangedReader::parse(writer.finish().unwrap().0).unwrap();
    // The source's groups, its 417-row tail included.
    let rows: Vec<u64> = (0..4).map(|g| out.row_group_meta(g).row_count).collect();
    assert_eq!(rows, [1_000, 1_000, 1_000, 417]);
    assert_eq!(
        out.read_all(None).unwrap(),
        head.project(&["fare", "id"]).unwrap()
    );

    // Behind pending rows, or at a cut shorter than a source group, the
    // same batch is encoded; so is a cut of it, which has no origin.
    let mut pending = FileWriter::new(schema.clone(), options());
    pending.write_batch(&batch.slice(0, 10).unwrap()).unwrap();
    pending.write_batch(&batch).unwrap();
    let half = WriterOptions {
        row_group_rows: GROUP / 2,
    };
    let mut short = FileWriter::new(schema.clone(), half);
    short.write_batch(&batch).unwrap();
    let mut cut = FileWriter::new(schema.clone(), options());
    cut.write_batch(&batch.slice(0, 3_000).unwrap()).unwrap();
    for writer in [pending, short, cut] {
        assert_eq!(writer.copied(), Copied::default());
        assert!(writer.groups_encoded() > 0);
    }
    // An origin whose chunks count other rows than its batch is an error:
    // an operator that changed rows kept it.
    let origin = batch.origin().unwrap().clone();
    let lying = batch.slice(0, 10).unwrap().with_origin(origin).unwrap();
    let err = FileWriter::new(schema, options())
        .write_batch(&lying)
        .unwrap_err();
    assert!(
        matches!(err, FormatError::InvalidArgument(_)),
        "got {err:?}"
    );
}
