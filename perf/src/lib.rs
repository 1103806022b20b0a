//! The repo's benchmark: five workloads over the whole stack (XML text →
//! parse → shred → tuned design → XPath over the wire → rows; write → WAL →
//! restart; workload → recommendation), end-to-end metrics with tracing
//! off, per-layer metrics from a traced run. See `README.md`.

pub mod compare;
pub mod fixture;
pub mod json;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
