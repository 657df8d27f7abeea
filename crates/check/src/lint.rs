//! The repo-specific lint pass (prong 2 of the checker). Pure source scan,
//! no dependencies, no proc macros — just the project's concurrency rules:
//!
//! * **R1 `unsafe-safety`** — every `unsafe {` / `unsafe impl` / `unsafe fn`
//!   carries a `// SAFETY:` comment (same line or the contiguous comment
//!   block immediately above).
//! * **R2 `relaxed-justified`** — every `Relaxed` ordering carries a
//!   `// relaxed:` justification (same line or above), unless the file is
//!   an allowlisted stats-counter module.
//! * **R3 `datapath-no-panic`** — no `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in the datapath modules
//!   (`spsc.rs`, `nic.rs`, `tpt.rs`, and the page stealer and swap device
//!   they reach through an on-demand repin: `reclaim.rs`, `swap.rs`)
//!   outside `#[cfg(test)]` regions. A NIC fault must surface as a typed
//!   completion error, never a process abort.
//! * **R4 `completion-choke-point`** — in `crates/via/src`, completions are
//!   pushed onto a CQ (`cq.push…`) only inside `fn push_completion`: the
//!   single choke point where CQ-overflow policy and doorbells live.
//!
//! The binary (`cargo run -p check --bin lint`) walks the repo and exits
//! non-zero on any finding; this module holds the logic so the rules are
//! unit-testable on synthetic sources.

use std::fmt;
use std::path::Path;

/// Files where `Relaxed` is the point (monotonic stats counters, no
/// ordering requirements) — R2 does not fire there.
const RELAXED_ALLOWLIST: &[&str] = &["crates/simmem/src/stats.rs"];

/// Datapath modules under the no-panic rule (R3).
const DATAPATH: &[&str] = &[
    "crates/via/src/spsc.rs",
    "crates/via/src/nic.rs",
    // The translation core runs on every descriptor, with addresses and
    // lengths a peer chose.
    "crates/via/src/tpt.rs",
    // The stealer and the swap device run inside `Node::resolve` →
    // `repin_page` → `lazy_pin_page` on every on-demand DMA that faults: a
    // broken index there is a `debug_assert` and a typed `None`.
    "crates/simmem/src/reclaim.rs",
    "crates/simmem/src/swap.rs",
];

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Scan one source file. `relpath` must be repo-relative with `/`
/// separators (it selects which rules apply).
pub fn scan_source(relpath: &str, src: &str) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let stripped: Vec<String> = lines.iter().map(|l| strip_noncode(l)).collect();
    // Integration-test and model-harness files (anything under a `tests/`
    // directory) are test code wholesale — same exemptions as
    // `#[cfg(test)]` regions.
    let path_is_test = relpath.starts_with("tests/") || relpath.contains("/tests/");
    let in_test = if path_is_test {
        vec![true; lines.len()]
    } else {
        test_region_mask(&stripped)
    };

    let mut findings = Vec::new();
    let is_datapath = DATAPATH.contains(&relpath);
    let relaxed_allowed = RELAXED_ALLOWLIST.contains(&relpath);
    let is_via_src = relpath.starts_with("crates/via/src/");

    for (i, line) in lines.iter().enumerate() {
        let code = &stripped[i];

        // R1: unsafe needs SAFETY.
        if has_unsafe_site(code)
            && !line.contains("SAFETY")
            && !comment_block_above_contains(&lines, i, "SAFETY")
        {
            findings.push(Finding {
                file: relpath.to_string(),
                line: i + 1,
                rule: "unsafe-safety",
                message: "`unsafe` without a `// SAFETY:` comment".to_string(),
            });
        }

        // R2: Relaxed needs a justification.
        if !in_test[i]
            && !relaxed_allowed
            && has_word(code, "Relaxed")
            && !line.to_lowercase().contains("relaxed:")
            && !comment_block_above_contains(&lines, i, "relaxed:")
        {
            findings.push(Finding {
                file: relpath.to_string(),
                line: i + 1,
                rule: "relaxed-justified",
                message: "`Ordering::Relaxed` without a `// relaxed:` justification".to_string(),
            });
        }

        // R3: no panics in the datapath.
        if is_datapath && !in_test[i] {
            for pat in PANIC_PATTERNS {
                if code.contains(pat) {
                    findings.push(Finding {
                        file: relpath.to_string(),
                        line: i + 1,
                        rule: "datapath-no-panic",
                        message: format!("`{pat}` in datapath module (return a typed error)"),
                    });
                }
            }
        }

        // R4: completions flow through push_completion only.
        if is_via_src && !in_test[i] && code.contains("cq.push") {
            let encl = enclosing_fn(&stripped, i);
            if encl.as_deref() != Some("push_completion") {
                findings.push(Finding {
                    file: relpath.to_string(),
                    line: i + 1,
                    rule: "completion-choke-point",
                    message: format!(
                        "CQ push outside `fn push_completion` (in `{}`)",
                        encl.unwrap_or_else(|| "<no enclosing fn>".to_string())
                    ),
                });
            }
        }
    }
    findings
}

/// Walk `root` and scan every `.rs` file (skipping `target/` and `.git/`).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let src = std::fs::read_to_string(&path)?;
                findings.extend(scan_source(&rel, &src));
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Reduce a line to the code that can trigger a rule: drop a trailing
/// `// …` comment and blank out string/char literal *contents* (keeping the
/// quotes), so neither comment text nor literal text matches a pattern.
/// Naive about raw strings (`r#"…"#`) and multi-line literals — this repo's
/// rustfmt'd sources don't put rule words in either.
fn strip_noncode(line: &str) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            break; // comment runs to end of line
        }
        if c == '"' {
            out.push('"');
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        out.push('"');
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        if c == '\'' {
            // Char literal vs lifetime: a literal closes with a quote.
            if let Some(len) = char_literal_len(&chars[i..]) {
                out.push('\'');
                i += len;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Length of the char literal starting at `chars[0] == '\''`, or `None`
/// if this is a lifetime (`'a`) rather than a literal.
fn char_literal_len(chars: &[char]) -> Option<usize> {
    if chars.get(1) == Some(&'\\') {
        chars
            .iter()
            .enumerate()
            .skip(2)
            .find(|(_, c)| **c == '\'')
            .map(|(j, _)| j + 1)
    } else if chars.get(2) == Some(&'\'') {
        Some(3)
    } else {
        None
    }
}

/// `word` appears in `code` delimited by non-identifier characters.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident(bytes[start - 1]);
        let post_ok = end == bytes.len() || !is_ident(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does this line open an `unsafe` site (`unsafe {`, `unsafe impl`,
/// `unsafe fn`)? `unsafe` in an fn *signature type* (e.g. `unsafe fn` as a
/// pointer type) is rare enough here to share the rule.
fn has_unsafe_site(code: &str) -> bool {
    has_word(code, "unsafe")
}

/// Check the contiguous comment/attribute block immediately above line `i`
/// for `needle` (case-sensitive).
fn comment_block_above_contains(lines: &[&str], i: usize, needle: &str) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim_start();
        if t.starts_with("//") {
            if t.contains(needle) {
                return true;
            }
        } else if t.starts_with("#[") || t.starts_with("#![") {
            // Attributes may sit between the comment and the item.
        } else {
            return false;
        }
    }
    false
}

/// Per-line mask: true where the line is inside a `#[cfg(test)] mod { … }`
/// region. Brace-counting state machine over comment-stripped lines.
fn test_region_mask(stripped: &[String]) -> Vec<bool> {
    let mut mask = vec![false; stripped.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    // (closing depth) of each active test region.
    let mut regions: Vec<i64> = Vec::new();
    for (i, code) in stripped.iter().enumerate() {
        let t = code.trim();
        if t.contains("#[cfg(test)]") || t.contains("#[cfg(all(test") {
            pending_cfg_test = true;
        } else if pending_cfg_test && !t.is_empty() && !t.starts_with("#[") {
            if t.starts_with("mod ") || t.contains(" mod ") {
                regions.push(depth);
            }
            pending_cfg_test = false;
        }
        if !regions.is_empty() {
            mask[i] = true;
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(&open_depth) = regions.last() {
                        if depth <= open_depth {
                            regions.pop();
                        }
                    }
                }
                _ => {}
            }
        }
    }
    mask
}

/// Name of the nearest `fn` declared at or above line `i` — an
/// approximation of "enclosing function" that is exact for this repo's
/// formatting (one `fn` per line, rustfmt'd).
fn enclosing_fn(stripped: &[String], i: usize) -> Option<String> {
    for j in (0..=i).rev() {
        let code = &stripped[j];
        if let Some(pos) = code.find("fn ") {
            let pre_ok = pos == 0 || !is_ident(code.as_bytes()[pos.saturating_sub(1)]);
            if pre_ok {
                let rest = &code[pos + 3..];
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    return Some(name);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let src = "fn f() {\n    let x = unsafe { *p };\n}\n";
        let f = scan_source("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-safety");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let above =
            "fn f() {\n    // SAFETY: p is valid for reads.\n    let x = unsafe { *p };\n}\n";
        assert!(scan_source("crates/x/src/a.rs", above).is_empty());
        let inline = "unsafe impl Send for T {} // SAFETY: T owns its data.\n";
        assert!(scan_source("crates/x/src/a.rs", inline).is_empty());
        let with_attr = "// SAFETY: fine.\n#[allow(dead_code)]\nunsafe impl Send for T {}\n";
        assert!(scan_source("crates/x/src/a.rs", with_attr).is_empty());
    }

    #[test]
    fn unjustified_relaxed_is_flagged_and_allowlist_exempts() {
        let src = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        let f = scan_source("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "relaxed-justified");
        assert!(scan_source("crates/simmem/src/stats.rs", src).is_empty());
        let justified =
            "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); // relaxed: counter\n}\n";
        assert!(scan_source("crates/x/src/a.rs", justified).is_empty());
    }

    #[test]
    fn relaxed_in_word_position_only() {
        // "RelaxedFoo" must not match.
        let src = "fn f() { let _ = RelaxedFoo::new(); }\n";
        assert!(scan_source("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn datapath_panics_flagged_outside_tests_only() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let f = scan_source("crates/via/src/spsc.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        // The translation core is a datapath module too, and so are the
        // stealer and the swap device an on-demand repin runs.
        for path in [
            "crates/via/src/tpt.rs",
            "crates/simmem/src/reclaim.rs",
            "crates/simmem/src/swap.rs",
        ] {
            assert_eq!(scan_source(path, src).len(), 1, "{path}");
        }
        // Non-datapath files are exempt from R3.
        assert!(scan_source("crates/via/src/other.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\n";
        assert!(scan_source("crates/via/src/spsc.rs", src).is_empty());
    }

    #[test]
    fn cq_push_only_in_push_completion() {
        let ok = "fn push_completion(&mut self) {\n    self.cq.push_back(c);\n}\n";
        assert!(scan_source("crates/via/src/vi.rs", ok).is_empty());
        let bad = "fn sneak(&mut self) {\n    self.cq.push_back(c);\n}\n";
        let f = scan_source("crates/via/src/vi.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "completion-choke-point");
        // Outside crates/via/src the rule does not apply.
        assert!(scan_source("crates/core/src/foo.rs", bad).is_empty());
    }

    #[test]
    fn comment_text_does_not_trigger_rules() {
        let src = "// calling unwrap() would panic!( here ) — unsafe in spirit\nfn f() {}\n";
        assert!(scan_source("crates/via/src/spsc.rs", src).is_empty());
    }

    #[test]
    fn string_literal_text_does_not_trigger_rules() {
        let src = "fn f() -> &'static str {\n    \"unsafe Relaxed .unwrap() panic!(\"\n}\n";
        assert!(scan_source("crates/via/src/spsc.rs", src).is_empty());
        // …and a char literal containing a quote doesn't derail stripping.
        let chars = "fn g(c: char) -> bool { c == '\"' || c == '\\'' }\n";
        assert!(scan_source("crates/via/src/spsc.rs", chars).is_empty());
    }

    #[test]
    fn tests_dir_files_are_test_code() {
        let src = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(scan_source("tests/chaos.rs", src).is_empty());
        assert!(scan_source("crates/check/tests/model_x.rs", src).is_empty());
        assert_eq!(scan_source("crates/x/src/a.rs", src).len(), 1);
    }
}
