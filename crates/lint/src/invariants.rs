//! Cross-file protocol invariants.
//!
//! These are the properties that no single-file lint can see but whose
//! violation silently breaks recovery:
//!
//! 1. **determinant-codec** — every `Determinant` enum variant has a
//!    matching arm in the wire codec's encoder *and* decoder
//!    (`encode_wire`, `decode_wire`). A variant that encodes but does
//!    not decode corrupts every causal log that ships it; one that is never
//!    encoded can never be recovered.
//! 2. **determinant-replay** — every variant is consumed by a replay arm
//!    somewhere on the replay surface (engine task/cluster, causal services,
//!    causal-log/in-flight replay). A logged-but-never-replayed event makes
//!    replay diverge from the original run.
//! 3. **stats-surfaced** — `RunReport` embeds each stats struct, and every
//!    counter field is read outside its defining file (tests, sweeps, bench
//!    bins). A counter nobody reads is a guarantee nobody checks.

use crate::callgraph::Workspace;
use crate::config;
use crate::diagnostics::Diagnostic;
use crate::parser::{FieldFact, FnItem, ParsedFile};
use std::collections::BTreeSet;

pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Parsed view of a configured file; a missing one (reported as
    // `unreadable-file`) reads as empty.
    let empty = ParsedFile::default();
    let parsed = |rel: &str| ws.files.get(rel).unwrap_or(&empty);

    // ---- 1 & 2: Determinant variants vs codec and replay arms -----------
    let det = parsed(config::DETERMINANT_FILE);
    let variants = det.enums.get("Determinant").cloned().unwrap_or_default();
    if variants.is_empty() {
        diags.push(Diagnostic::new(
            config::DETERMINANT_FILE,
            0,
            "determinant-codec",
            "could not locate `enum Determinant` (moved? update clonos-lint config)",
        ));
    }
    let codec_refs = |name: &str| determinant_refs(det.fns.iter().find(|f| f.name == name));
    let (encode_refs, decode_refs) = (codec_refs("encode_wire"), codec_refs("decode_wire"));
    let replay_refs = determinant_refs(
        config::REPLAY_SURFACE_FILES.iter().flat_map(|rel| &parsed(rel).fns),
    );
    for (variant, line) in &variants {
        for (refs, codec_fn) in [(&encode_refs, "encode_wire"), (&decode_refs, "decode_wire")] {
            if !refs.contains(variant.as_str()) {
                diags.push(Diagnostic::new(
                    config::DETERMINANT_FILE,
                    *line,
                    "determinant-codec",
                    format!("variant `{variant}` has no arm in `Determinant::{codec_fn}`"),
                ));
            }
        }
        if !replay_refs.contains(variant.as_str()) {
            diags.push(Diagnostic::new(
                config::DETERMINANT_FILE,
                *line,
                "determinant-replay",
                format!(
                    "variant `{variant}` is never matched on the replay surface ({})",
                    config::REPLAY_SURFACE_FILES.join(", ")
                ),
            ));
        }
    }

    // ---- 3: stats counters surfaced through RunReport -------------------
    let report = parsed(config::RUN_REPORT_FILE).structs.get("RunReport");
    if report.is_none_or(|fields| fields.is_empty()) {
        diags.push(Diagnostic::new(
            config::RUN_REPORT_FILE,
            0,
            "stats-surfaced",
            "could not locate `struct RunReport` (moved? update clonos-lint config)",
        ));
    }
    for (name, defining) in config::STATS_STRUCTS {
        let Some(fields) = parsed(defining).structs.get(*name).filter(|f| !f.is_empty()) else {
            diags.push(Diagnostic::new(
                *defining,
                0,
                "stats-surfaced",
                format!("could not locate `struct {name}` (moved? update clonos-lint config)"),
            ));
            continue;
        };
        let embeds = |f: &FieldFact| f.ty.iter().any(|t| t == name);
        if report.is_some_and(|r| !r.is_empty() && !r.iter().any(embeds)) {
            diags.push(Diagnostic::new(
                config::RUN_REPORT_FILE,
                0,
                "stats-surfaced",
                format!("`RunReport` has no field of type `{name}`"),
            ));
        }
        // Read as `.field` in any *other* file, tests and bench bins included.
        let read_elsewhere = |field: &str| {
            ws.sources.iter().any(|(rel, src)| rel != defining && src.dots.contains(field))
        };
        for field in fields.iter().filter(|f| f.is_pub && !read_elsewhere(&f.name)) {
            diags.push(Diagnostic::new(
                *defining,
                field.line,
                "stats-surfaced",
                format!(
                    "counter `{name}.{}` is never read outside {defining}; \
                     surface it in a report/test or remove it",
                    field.name
                ),
            ));
        }
    }

    diags
}

/// Variants of `Determinant` the given fn bodies name, in any role (arm
/// pattern, construction or `if let` test).
fn determinant_refs<'a>(fns: impl IntoIterator<Item = &'a FnItem>) -> BTreeSet<&'a str> {
    fns.into_iter()
        .flat_map(FnItem::variant_sites)
        .filter(|v| v.enm == "Determinant")
        .map(|v| v.variant.as_str())
        .collect()
}
