//! Offline stand-in for the part of `serde` / `serde_json` this workspace
//! uses: reading JSON back.
//!
//! Every artifact the workspace writes (Chrome traces, profiles, reports)
//! is serialized by hand (see `polar_runtime::write_chrome_trace` and the
//! metrics exporters); the [`json`] module is the *reader* counterpart, a
//! small recursive-descent JSON parser into a dynamic [`json::Value`],
//! enough for `polar-verify`, the tests and the benchmark to re-parse what
//! the workspace writes.

pub mod json;
