//! Ablation: row-group size vs. pruning effectiveness.
//!
//! Smaller row groups give zone maps finer granularity (fewer bytes fetched
//! for selective queries) but cost more footer metadata — and one more round
//! trip once the footer outgrows the reader's tail probe. Neighbouring chunks
//! travel in one request, so the request count itself does not grow with the
//! group count. This sweep quantifies the trade-off behind the writer's
//! 8192-row default.
//!
//! Regenerate: `cargo run -p lakehouse-bench --bin ablation_rowgroup`

// Examples and benches print their results.
#![allow(clippy::print_stdout)]

use lakehouse_bench::print_rows;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_format::{FileWriter, RangedReader, WriterOptions};
use std::cell::RefCell;

fn main() {
    println!("=== ablation: row-group size vs pruning (selective point query) ===");
    const ROWS: i64 = 200_000;
    // Sorted key so zone maps are maximally useful (clustered data, the
    // layout compaction would produce).
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("payload", DataType::Utf8, false),
        ]),
        vec![
            Column::from_i64((0..ROWS).collect()),
            Column::from_str_vec((0..ROWS).map(|i| format!("payload-{i:08}")).collect()),
        ],
    )
    .unwrap();

    let mut rows = Vec::new();
    for &group_rows in &[512usize, 2_048, 8_192, 32_768, 131_072] {
        let bytes = FileWriter::write_file(
            &batch,
            WriterOptions {
                row_group_rows: group_rows,
            },
        )
        .unwrap();
        let fetched = RefCell::new(0usize);
        let fetches = RefCell::new(0usize);
        let fetch = |start: usize, end: usize| -> lakehouse_format::Result<bytes::Bytes> {
            *fetched.borrow_mut() += end - start;
            *fetches.borrow_mut() += 1;
            Ok(bytes.slice(start..end))
        };
        let reader = RangedReader::open(bytes.len(), &fetch).unwrap();
        // Selective range: 1% of the table.
        let lo = ROWS / 2;
        let hi = lo + ROWS / 100;
        let groups_ge = reader.prune("id", CmpOp::GtEq, &Value::Int64(lo)).unwrap();
        let groups_lt = reader.prune("id", CmpOp::Lt, &Value::Int64(hi)).unwrap();
        let groups: Vec<usize> = groups_ge
            .into_iter()
            .filter(|g| groups_lt.contains(g))
            .collect();
        let out = reader.read_groups(&groups, None, &fetch).unwrap();
        rows.push(vec![
            format!("{group_rows}"),
            format!("{}", reader.num_row_groups()),
            format!("{}", bytes.len()),
            format!("{}", groups.len()),
            format!("{}", out.num_rows()),
            format!("{}", *fetches.borrow()),
            format!("{:.1}", *fetched.borrow() as f64 / 1024.0),
            format!(
                "{:.1}%",
                *fetched.borrow() as f64 / bytes.len() as f64 * 100.0
            ),
        ]);
    }
    print_rows(
        "1%-selectivity range query over a 200k-row sorted file",
        &[
            "rows/group",
            "groups",
            "file bytes",
            "groups read",
            "rows decoded",
            "range reads",
            "KB fetched",
            "% of file",
        ],
        &rows,
    );
    println!(
        "\nReading: small groups minimize bytes fetched; the surviving chunks \
         are neighbours and travel in one request, so round trips stay at \
         footer + 1 — plus one when the footer outgrows the 16 KiB tail probe \
         (512 rows/group). Large groups fetch and decode rows the query never \
         wanted. The 8192 default keeps the footer inside the probe and the \
         over-read small."
    );
}
