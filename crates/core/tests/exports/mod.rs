//! `lib.rs` export parser shared by the public-API surface snapshots.

/// Parse the `pub use` items out of a crate's `lib.rs` source, split into
/// (deprecated, non-deprecated) by whether the statement sits under an
/// `#[allow(deprecated)]` attribute (the marker a legacy re-export
/// needs).
pub fn parse_exports(src: &str) -> (Vec<String>, Vec<String>) {
    let mut deprecated = Vec::new();
    let mut current = Vec::new();
    let mut pending_allow = false;
    let mut in_use: Option<bool> = None;
    let mut buf = String::new();
    for line in src.lines() {
        let line = line.trim();
        if let Some(is_dep) = in_use {
            buf.push_str(line);
            if line.ends_with(';') {
                collect(&buf, is_dep, &mut deprecated, &mut current);
                buf.clear();
                in_use = None;
            }
            continue;
        }
        if line == "#[allow(deprecated)]" {
            pending_allow = true;
            continue;
        }
        if line.starts_with("pub use ") {
            if line.ends_with(';') {
                collect(line, pending_allow, &mut deprecated, &mut current);
            } else {
                buf.push_str(line);
                in_use = Some(pending_allow);
            }
            pending_allow = false;
        } else if !line.starts_with("//") && !line.is_empty() {
            pending_allow = false;
        }
    }
    deprecated.sort();
    deprecated.dedup();
    current.sort();
    current.dedup();
    (deprecated, current)
}

/// Split one complete `pub use path::{a, b};` statement into symbols.
fn collect(stmt: &str, is_dep: bool, deprecated: &mut Vec<String>, current: &mut Vec<String>) {
    let body = stmt
        .trim_start_matches("pub use ")
        .trim_end_matches(';')
        .trim();
    let names: Vec<&str> = match (body.find('{'), body.rfind('}')) {
        (Some(open), Some(close)) => body[open + 1..close].split(',').collect(),
        _ => vec![body.rsplit("::").next().unwrap_or(body)],
    };
    for name in names {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        if is_dep {
            deprecated.push(name.to_owned());
        } else {
            current.push(name.to_owned());
        }
    }
}
