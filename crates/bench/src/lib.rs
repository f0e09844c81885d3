//! The JSON value type the whole-stack benchmark (`benchmark/`, see
//! `BENCHMARK.json`) reads and writes its result files with.

pub mod json;
