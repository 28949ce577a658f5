//! `steady-lint` — the project-invariant gate for the serving core.
//!
//! A token-level linter (no syn, no registry dependencies) enforcing the
//! concurrency invariants the model checker can't see from inside one
//! process:
//!
//! * **lock-order** — the documented lock order of `steady_service::sync`
//!   (admission locks `10` → ledger/bases `20` → cache shards `30` → seeded
//!   set `40`) is never reversed: acquiring a lock requires every held lock
//!   to rank strictly lower;
//! * **no-panics** — no `.unwrap()` / `.expect()` / `panic!()` in
//!   `crates/service` and `crates/runtime` non-test code, waivable with a
//!   `// lint: allow(panics)` comment on the same or preceding line;
//! * **relaxed-justified** — every `Ordering::Relaxed` in `crates/*/src`
//!   carries a `// relaxed:` justification on the same or a nearby
//!   preceding line;
//! * **worker-entry** — every function marked `// lint: worker-entry` (the
//!   closures executed on pool workers) is only called under a
//!   `catch_unwind` wrapper, so a panicking job can never shrink the pool;
//! * **forbid-unsafe** — every crate root in the workspace (crates, shims,
//!   tools) carries `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]`
//!   with a `// lint: allow(deny-unsafe)` waiver).
//!
//! Run `cargo run -p steady-lint` to lint the workspace (exit code 1 on any
//! violation) and `cargo run -p steady-lint -- --self-test` to prove each
//! rule still fires on the seeded fixtures in `fixtures/`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation, printed as `file:line: [rule] message`.
struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

/// A source line split into its code and comment parts: string/char literal
/// contents are blanked out of `code`, comment text (line and block) is
/// moved to `comment`.
#[derive(Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Splits `source` into per-line code/comment streams with literals blanked,
/// so token scans never match inside strings or comments.  Handles line
/// comments, nested block comments, string/raw-string/byte-string literals,
/// and the char-literal-vs-lifetime ambiguity.
fn strip(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = vec![Line::default()];
    let mut i = 0;
    fn push(lines: &mut Vec<Line>, c: char, to_comment: bool) {
        if c == '\n' {
            lines.push(Line::default());
        } else if let Some(line) = lines.last_mut() {
            if to_comment {
                line.comment.push(c);
            } else {
                line.code.push(c);
            }
        }
    }
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                push(&mut lines, chars[i], true);
                i += 1;
            }
            continue;
        }
        if c == '/' && next == Some('*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    push(&mut lines, '/', true);
                    push(&mut lines, '*', true);
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    push(&mut lines, '*', true);
                    push(&mut lines, '/', true);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    push(&mut lines, chars[i], true);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"..." / r#"..."# / br#"..."#.
        let raw_start = if c == 'r' && matches!(next, Some('"') | Some('#')) {
            Some(i + 1)
        } else if c == 'b' && next == Some('r') && matches!(chars.get(i + 2), Some('"') | Some('#'))
        {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                j += 1;
                // Scan for the closing quote followed by the same number of
                // hashes; blank everything (newlines preserved).
                while j < chars.len() {
                    if chars[j] == '"' {
                        let mut k = 0;
                        while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break;
                        }
                    }
                    if chars[j] == '\n' {
                        push(&mut lines, '\n', false);
                    }
                    j += 1;
                }
                push(&mut lines, ' ', false);
                i = j;
                continue;
            }
        }
        // Plain (and byte) strings.
        if c == '"' || (c == 'b' && next == Some('"')) {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            while j < chars.len() {
                match chars[j] {
                    '\\' => {
                        // A line-continuation escape (`\` before a newline)
                        // still consumes a source line — keep the count.
                        if chars.get(j + 1) == Some(&'\n') {
                            push(&mut lines, '\n', false);
                        }
                        j += 2;
                    }
                    '"' => {
                        j += 1;
                        break;
                    }
                    '\n' => {
                        push(&mut lines, '\n', false);
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            push(&mut lines, ' ', false);
            i = j;
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'a (no closing
        // quote right after the identifier char) is a lifetime.
        if c == '\'' {
            let is_char = next == Some('\\') || (next.is_some() && chars.get(i + 2) == Some(&'\''));
            if is_char {
                let mut j = i + 1;
                if chars.get(j) == Some(&'\\') {
                    j += 1;
                    // Escapes like \u{1F600} run to the closing quote.
                    while j < chars.len() && chars[j] != '\'' {
                        j += 1;
                    }
                } else {
                    j += 1;
                }
                if chars.get(j) == Some(&'\'') {
                    j += 1;
                }
                push(&mut lines, ' ', false);
                i = j;
                continue;
            }
        }
        push(&mut lines, c, false);
        i += 1;
    }
    lines
}

/// Marks the lines belonging to `#[cfg(test)]`-gated items (the module the
/// attribute precedes, brace-balanced), so production-only rules skip them.
/// Compound gates that still require `test` (`#[cfg(all(test, ...))]`, as
/// used by crates whose tests are excluded under `--cfg steady_loom`) count.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") || lines[i].code.contains("#[cfg(all(test") {
            // Mask to the end of the gated item (its brace-balanced body).
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether `hay[at..]` starts a token `needle` on an identifier boundary.
/// The preceding-char check only applies when the needle itself begins with
/// an identifier character — a needle like `.unwrap` legitimately follows a
/// receiver identifier.
fn token_at(hay: &str, at: usize, needle: &str) -> bool {
    if !hay[at..].starts_with(needle) {
        return false;
    }
    let ident_start = needle.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
    !ident_start
        || at == 0
        || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// All identifier-boundary occurrences of `needle` in `hay`.
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        if token_at(hay, at, needle) {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: no-panics
// ---------------------------------------------------------------------------

/// `.unwrap()` / `.expect()` / `panic!()` in non-test code, unless waived by
/// `// lint: allow(panics)` on the same or the preceding line.
fn rule_no_panics(path: &Path, lines: &[Line], mask: &[bool], out: &mut Vec<Violation>) {
    for (n, line) in lines.iter().enumerate() {
        if mask[n] {
            continue;
        }
        let waived = line.comment.contains("lint: allow(panics)")
            || (n > 0 && lines[n - 1].comment.contains("lint: allow(panics)"));
        if waived {
            continue;
        }
        for method in [".unwrap", ".expect"] {
            for at in token_positions(&line.code, method) {
                let rest = line.code[at + method.len()..].trim_start();
                if rest.starts_with('(') {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: n + 1,
                        rule: "no-panics",
                        message: format!(
                            "`{method}()` in production code — handle the error or waive with \
                             `// lint: allow(panics)`"
                        ),
                    });
                }
            }
        }
        for at in token_positions(&line.code, "panic!") {
            let rest = line.code[at + "panic!".len()..].trim_start();
            if rest.starts_with('(') {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: n + 1,
                    rule: "no-panics",
                    message: "`panic!()` in production code — return an error or waive with \
                              `// lint: allow(panics)`"
                        .into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: relaxed-justified
// ---------------------------------------------------------------------------

/// Every `Ordering::Relaxed` must carry a `// relaxed:` justification on the
/// same line or one of the four preceding lines.
fn rule_relaxed(path: &Path, lines: &[Line], mask: &[bool], out: &mut Vec<Violation>) {
    for (n, line) in lines.iter().enumerate() {
        if mask[n] || line.code.trim_start().starts_with("use ") {
            continue;
        }
        if token_positions(&line.code, "Relaxed").is_empty() {
            continue;
        }
        // A contiguous run of `Relaxed` lines (e.g. a stats-snapshot struct
        // literal) shares one justification: the comment must appear within
        // the five lines preceding the run's first line.
        let mut run_start = n;
        while run_start > 0 && !token_positions(&lines[run_start - 1].code, "Relaxed").is_empty() {
            run_start -= 1;
        }
        let justified =
            (run_start.saturating_sub(5)..=n).any(|m| lines[m].comment.contains("relaxed:"));
        if !justified {
            out.push(Violation {
                file: path.to_path_buf(),
                line: n + 1,
                rule: "relaxed-justified",
                message: "`Ordering::Relaxed` without a `// relaxed:` justification comment".into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: lock-order
// ---------------------------------------------------------------------------

/// The documented lock order of `steady_service::sync` (which also lists
/// the `steady_sched::sync` locks at ranks 10/25), by the receiver's
/// final named path component.
fn lock_rank(name: &str) -> Option<u32> {
    match name {
        "table" | "state" | "lanes" => Some(10),
        "bases" | "keys" => Some(20),
        "pending" => Some(25),
        "shard" | "shards" => Some(30),
        "seeded" => Some(40),
        "ring" => Some(50),
        _ => None,
    }
}

/// Internal rank of a method call that takes locks inside the callee, by the
/// receiver component: calling into these while holding an equal-or-higher
/// lock reverses the documented order inside the callee.
fn callee_rank(receiver: &str, method: &str) -> Option<u32> {
    match receiver {
        "flight" => Some(10),
        "running" if matches!(method, "submit" | "counters" | "cancel_lane") => Some(10),
        "ledger" => Some(20),
        "idle" | "idle_latch" => Some(25),
        "cache" if method == "mark_class_seeded" => Some(40),
        "cache" => Some(30),
        _ => None,
    }
}

/// Walks backwards over a path expression (`self.shard(key)`, `shared.cache`)
/// ending at byte `end` and returns its final *named* component.
fn receiver_component(code: &str, end: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = end;
    loop {
        // Skip a trailing index/call group: `(...)` or `[...]`.
        while i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
            let close = bytes[i - 1];
            let open = if close == b')' { b'(' } else { b'[' };
            let mut depth = 0i64;
            while i > 0 {
                i -= 1;
                if bytes[i] == close {
                    depth += 1;
                } else if bytes[i] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
        let word_end = i;
        while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
            i -= 1;
        }
        if i < word_end {
            let word = &code[i..word_end];
            if word != "self" {
                return Some(word.to_string());
            }
        }
        // `self` (or a group with no name): keep walking across `.` joins.
        if i > 0 && bytes[i - 1] == b'.' {
            i -= 1;
        } else {
            return None;
        }
    }
}

/// A lock guard currently held while scanning a function body.
struct Held {
    rank: u32,
    name: String,
    depth: i64,
}

/// Detects reversed acquisitions against the documented lock order.  Guard
/// lifetimes are tracked heuristically: a `let`-bound `.lock()/.read()/
/// .write()` whose call is not immediately chained lives to the end of its
/// block (or an explicit `drop(name)`); a chained call is instantaneous.
fn rule_lock_order(path: &Path, lines: &[Line], mask: &[bool], out: &mut Vec<Violation>) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i64;
    for (n, line) in lines.iter().enumerate() {
        if mask[n] {
            continue;
        }
        let code = &line.code;
        let check = |held: &[Held], rank: u32, what: &str, out: &mut Vec<Violation>| {
            for h in held.iter() {
                if h.rank >= rank {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: n + 1,
                        rule: "lock-order",
                        message: format!(
                            "acquiring rank-{rank} lock via `{what}` while holding rank-{} \
                             guard `{}` — documented order is admission/lanes(10) < \
                             ledger/bases(20) < background-idle(25) < cache shards(30) < \
                             seeded(40) < trace ring(50), strictly ascending",
                            h.rank, h.name
                        ),
                    });
                }
            }
        };
        // Callee acquisitions first — RECEIVER.method(...) where the callee
        // locks internally.  These run before any guard bound on this line
        // exists (`let g = cache.shard(k).write()` calls into the cache
        // before the guard is live), so they check against locks held from
        // *earlier* lines only.
        let mut from = 0;
        while let Some(pos) = code[from..].find('.') {
            let at = from + pos;
            from = at + 1;
            let rest = &code[at + 1..];
            let method: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if method.is_empty() || !rest[method.len()..].starts_with('(') {
                continue;
            }
            if matches!(method.as_str(), "lock" | "read" | "write") {
                continue; // handled below as a direct acquisition
            }
            let Some(receiver) = receiver_component(code, at) else { continue };
            if let Some(rank) = callee_rank(&receiver, &method) {
                check(&held, rank, &format!("{receiver}.{method}()"), out);
            }
        }
        // Direct acquisitions: RECEIVER.lock() / .read() / .write().
        for method in [".lock(", ".read(", ".write("] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(method) {
                let at = from + pos;
                from = at + method.len();
                let Some(receiver) = receiver_component(code, at) else { continue };
                let Some(rank) = lock_rank(&receiver) else { continue };
                check(&held, rank, &format!("{receiver}{}", method.trim_end_matches('(')), out);
                // A chained call (`.lock().get(..)`) is a temporary guard;
                // only a plain `let`-bound one is held.
                let after = code[at + method.len()..].trim_start();
                let chained = after.starts_with(')') && after[1..].trim_start().starts_with('.');
                let is_let = code.trim_start().starts_with("let ");
                if is_let && !chained {
                    let name = code
                        .trim_start()
                        .trim_start_matches("let ")
                        .trim_start_matches("mut ")
                        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .next()
                        .unwrap_or("")
                        .to_string();
                    held.push(Held { rank, name, depth });
                }
            }
        }
        // Explicit drops release the named guard early.
        for at in token_positions(code, "drop") {
            let rest = code[at + 4..].trim_start();
            if let Some(arg) = rest.strip_prefix('(') {
                let name: String = arg
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                held.retain(|h| h.name != name);
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        held.retain(|h| h.depth <= depth);
    }
}

// ---------------------------------------------------------------------------
// Rule: worker-entry
// ---------------------------------------------------------------------------

/// Functions marked `// lint: worker-entry` run user-triggered work on pool
/// workers: every call site must sit under a `catch_unwind` wrapper (same
/// line or within the two preceding lines) so a panic cannot shrink the pool.
fn rule_worker_entry(files: &[(PathBuf, Vec<Line>, Vec<bool>)], out: &mut Vec<Violation>) {
    // Pass 1: collect marked function names across the scanned set.
    let mut entries: Vec<String> = Vec::new();
    for (_, lines, _) in files {
        for (n, line) in lines.iter().enumerate() {
            if !line.comment.contains("lint: worker-entry") {
                continue;
            }
            for follow in lines.iter().skip(n + 1).take(3) {
                if let Some(pos) = follow.code.find("fn ") {
                    let name: String = follow.code[pos + 3..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        entries.push(name);
                    }
                    break;
                }
            }
        }
    }
    // Pass 2: every call site of a marked function needs catch_unwind nearby.
    for (path, lines, mask) in files {
        for (n, line) in lines.iter().enumerate() {
            if mask[n] {
                continue;
            }
            for name in &entries {
                for at in token_positions(&line.code, name) {
                    let rest = &line.code[at + name.len()..];
                    if !rest.starts_with('(') {
                        continue;
                    }
                    // The declaration itself is not a call site.
                    if line.code[..at].trim_end().ends_with("fn") {
                        continue;
                    }
                    let wrapped =
                        (n.saturating_sub(2)..=n).any(|m| lines[m].code.contains("catch_unwind"));
                    if !wrapped {
                        out.push(Violation {
                            file: path.clone(),
                            line: n + 1,
                            rule: "worker-entry",
                            message: format!(
                                "worker-entry fn `{name}` called without a `catch_unwind` \
                                 wrapper — a panicking job would kill the pool worker"
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: forbid-unsafe
// ---------------------------------------------------------------------------

/// Every crate root must forbid unsafe code (or deny it with a waiver).
fn rule_forbid_unsafe(path: &Path, source: &str, out: &mut Vec<Violation>) {
    // Strip comments first so a doc comment *mentioning* the attribute
    // doesn't satisfy the rule.
    let lines = strip(source);
    let has = |needle: &str| lines.iter().any(|l| l.code.contains(needle));
    if has("#![forbid(unsafe_code)]") {
        return;
    }
    if has("#![deny(unsafe_code)]")
        && lines.iter().any(|l| l.comment.contains("lint: allow(deny-unsafe)"))
    {
        return;
    }
    out.push(Violation {
        file: path.to_path_buf(),
        line: 1,
        rule: "forbid-unsafe",
        message: "crate root lacks `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` with \
                  `// lint: allow(deny-unsafe)`)"
            .into(),
    });
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else { return out };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Loads and pre-lexes every file in `dirs` (each relative to `root`).
fn load(root: &Path, dirs: &[&str]) -> Vec<(PathBuf, Vec<Line>, Vec<bool>)> {
    let mut out = Vec::new();
    for dir in dirs {
        for path in rust_files(&root.join(dir)) {
            let Ok(source) = fs::read_to_string(&path) else { continue };
            let lines = strip(&source);
            let mask = test_mask(&lines);
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push((rel, lines, mask));
        }
    }
    out
}

/// Crate roots of the workspace: `src/lib.rs` / `src/main.rs` one level under
/// each of `crates/`, `shims/`, `tools/`.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for family in ["crates", "shims", "tools"] {
        let Ok(entries) = fs::read_dir(root.join(family)) else { continue };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for dir in entries {
            for name in ["src/lib.rs", "src/main.rs"] {
                let candidate = dir.join(name);
                if candidate.is_file() {
                    out.push(candidate);
                }
            }
        }
    }
    out
}

/// Lints the whole workspace rooted at `root`; returns every violation.
fn lint_workspace(root: &Path) -> (usize, Vec<Violation>) {
    let mut violations = Vec::new();
    let mut checked = 0usize;

    // Serving-core rules: service + scheduler + runtime sources.
    let core = load(root, &["crates/service/src", "crates/sched/src", "crates/runtime/src"]);
    checked += core.len();
    for (path, lines, mask) in &core {
        rule_no_panics(path, lines, mask, &mut violations);
        if path.starts_with("crates/service") || path.starts_with("crates/sched") {
            rule_lock_order(path, lines, mask, &mut violations);
        }
    }
    rule_worker_entry(&core, &mut violations);

    // Memory-ordering rule: every first-party crate, excluding integration
    // test and bench trees (test-only orderings guard no production
    // invariant, matching the `#[cfg(test)]` exemption elsewhere).
    let crates = load(root, &["crates"]);
    checked += crates.len();
    for (path, lines, mask) in &crates {
        let test_tree =
            path.components().any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches");
        if !test_tree {
            rule_relaxed(path, lines, mask, &mut violations);
        }
    }

    // Crate-root rule: the whole workspace.
    for path in crate_roots(root) {
        let Ok(source) = fs::read_to_string(&path) else { continue };
        checked += 1;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        rule_forbid_unsafe(&rel, &source, &mut violations);
    }

    (checked, violations)
}

/// Runs each rule against its seeded fixture and verifies it *fires* — the
/// linter proving it still catches what it claims to catch.
fn self_test(root: &Path) -> Result<(), String> {
    let fixtures = root.join("tools/steady-lint/fixtures");
    let expect: BTreeMap<&str, &str> = BTreeMap::from([
        ("bad_panics.rs", "no-panics"),
        ("bad_relaxed.rs", "relaxed-justified"),
        ("bad_lock_order.rs", "lock-order"),
        ("bad_worker_entry.rs", "worker-entry"),
        ("bad_unsafe.rs", "forbid-unsafe"),
        ("clean.rs", ""),
    ]);
    for (fixture, rule) in expect {
        let path = fixtures.join(fixture);
        let source = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let lines = strip(&source);
        let mask = test_mask(&lines);
        let mut found = Vec::new();
        rule_no_panics(&path, &lines, &mask, &mut found);
        rule_relaxed(&path, &lines, &mask, &mut found);
        rule_lock_order(&path, &lines, &mask, &mut found);
        let set = vec![(path.clone(), lines, mask)];
        rule_worker_entry(&set, &mut found);
        rule_forbid_unsafe(&path, &source, &mut found);
        if rule.is_empty() {
            // The clean fixture must pass every rule (it carries its own
            // forbid attribute, waivers and justifications).
            if !found.is_empty() {
                return Err(format!(
                    "{fixture}: expected clean, got {:?}",
                    found.iter().map(|v| v.rule).collect::<Vec<_>>()
                ));
            }
        } else if !found.iter().any(|v| v.rule == rule) {
            return Err(format!(
                "{fixture}: rule `{rule}` did not fire (got {:?})",
                found.iter().map(|v| v.rule).collect::<Vec<_>>()
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let root = match std::env::var("STEADY_LINT_ROOT") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
        }
    };
    // Debug aid: `--dump FILE` prints the stripped view with line numbers so
    // strip() drift can be spotted against the real file.
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--dump") {
        if let Some(file) = args.get(i + 1) {
            // lint: allow(panics) — debug path, not part of the gate.
            let source = fs::read_to_string(file).expect("readable file");
            for (n, line) in strip(&source).iter().enumerate() {
                println!("{:4} |{}|{}|", n + 1, line.code, line.comment);
            }
            return ExitCode::SUCCESS;
        }
    }
    if std::env::args().any(|a| a == "--self-test") {
        return match self_test(&root) {
            Ok(()) => {
                println!("steady-lint self-test: every rule fires on its seeded fixture");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("steady-lint self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (checked, violations) = lint_workspace(&root);
    if violations.is_empty() {
        println!("steady-lint: {checked} files checked, 0 violations");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("{}:{}: [{}] {}", v.file.display(), v.line, v.rule, v.message);
    }
    eprintln!("steady-lint: {checked} files checked, {} violation(s)", violations.len());
    ExitCode::FAILURE
}
