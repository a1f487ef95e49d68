//! The documents stay within their size budgets, every `DESIGN.md §N`
//! reference names a section DESIGN.md has, and every ROADMAP *Decided*
//! entry points at a paragraph EXPERIMENTS.md has.
//!
//! EXPERIMENTS.md keeps the latest table per metric and one lineage line per
//! change; superseded tables live in git history. DESIGN.md describes the
//! system as it is. Source comments, tests, examples, CI and the other
//! documents cite DESIGN.md by section number, so a renumbered or dropped
//! section breaks them silently unless something checks. CHANGES.md is
//! history and is not scanned.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Byte budgets: a document over its budget has started carrying history.
const BUDGETS: [(&str, usize); 3] =
    [("EXPERIMENTS.md", 45_000), ("DESIGN.md", 60_000), ("README.md", 15_000)];

/// Where `DESIGN.md §N` references are looked for: directories walked
/// recursively (skipping build output), and single files.
const SCANNED_DIRS: [&str; 4] = ["crates", "tests", "examples", ".github"];
const SCANNED_FILES: [&str; 3] = ["README.md", "EXPERIMENTS.md", "ROADMAP.md"];
const SCANNED_EXTENSIONS: [&str; 5] = ["rs", "md", "toml", "yml", "sh"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Section numbers of DESIGN.md's `## §N Title` headings, in file order.
fn design_sections(design: &str) -> Vec<u32> {
    design
        .lines()
        .filter_map(|line| line.strip_prefix("## §"))
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap_or_else(|_| panic!("unnumbered DESIGN.md heading: ## §{rest}"))
        })
        .collect()
}

/// Joins a comment or prose line break into one space, so a reference
/// split across lines (`DESIGN.md` at the end of one, `§8` on the next,
/// behind `//`, `///`, `//!` or `#`) reads as one.
fn unwrap_lines(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim_start();
        let body = ["//!", "///", "//", "#"]
            .iter()
            .find_map(|marker| trimmed.strip_prefix(marker))
            .unwrap_or(trimmed);
        out.push_str(body.trim());
        out.push(' ');
    }
    out
}

fn parse_number(text: &str) -> Option<(u32, &str)> {
    let digits = text.len() - text.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let number = text[..digits].parse().ok()?;
    Some((number, &text[digits..]))
}

/// Every section number a `DESIGN.md §N` reference names, including the
/// rest of a list that follows it (`DESIGN.md §8, §10 and §12`, `§7–§9`).
/// `DESIGN §N` and a backticked `` `DESIGN.md` §N `` count too.
fn design_references(text: &str) -> Vec<u32> {
    let text = unwrap_lines(text);
    let mut found = Vec::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("DESIGN") {
        rest = &rest[at + "DESIGN".len()..];
        let mut cursor = rest.strip_prefix(".md").unwrap_or(rest);
        cursor = cursor.strip_prefix('`').unwrap_or(cursor);
        cursor = cursor.trim_start_matches([' ', '(']);
        while let Some(after) = cursor.strip_prefix('§') {
            let Some((number, tail)) = parse_number(after) else { break };
            found.push(number);
            cursor = tail
                .strip_prefix(", ")
                .or_else(|| tail.strip_prefix(" and "))
                .or_else(|| tail.strip_prefix(" or "))
                .or_else(|| tail.strip_prefix('–'))
                .or_else(|| tail.strip_prefix('/'))
                .unwrap_or("");
        }
    }
    found
}

fn scanned_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|name| name != "target") {
                    walk(&path, out);
                }
            } else if path
                .extension()
                .and_then(|ext| ext.to_str())
                .is_some_and(|ext| SCANNED_EXTENSIONS.contains(&ext))
            {
                out.push(path);
            }
        }
    }
    let mut files: Vec<PathBuf> = SCANNED_FILES.iter().map(|f| root.join(f)).collect();
    for dir in SCANNED_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut files);
        }
    }
    files
}

#[test]
fn documents_stay_within_their_budgets() {
    let root = repo_root();
    let over: Vec<String> = BUDGETS
        .iter()
        .filter_map(|&(name, budget)| {
            let bytes = fs::metadata(root.join(name)).expect(name).len() as usize;
            (bytes > budget).then(|| format!("{name}: {bytes} bytes, budget {budget}"))
        })
        .collect();
    assert!(over.is_empty(), "documents over budget:\n{}", over.join("\n"));
}

#[test]
fn every_design_reference_names_a_section_that_exists() {
    let root = repo_root();
    let numbered = design_sections(&read(&root.join("DESIGN.md")));
    let expected: Vec<u32> = (1..=numbered.len() as u32).collect();
    assert_eq!(numbered, expected, "DESIGN.md's sections must run §1, §2, … in order");
    let sections: BTreeSet<u32> = numbered.into_iter().collect();
    let files = scanned_files(&root);
    let mut references = 0;
    let mut dangling = Vec::new();
    for file in &files {
        for number in design_references(&read(file)) {
            references += 1;
            if !sections.contains(&number) {
                let shown = file.strip_prefix(&root).unwrap_or(file);
                dangling.push(format!("{}: DESIGN.md §{number}", shown.display()));
            }
        }
    }
    assert!(references > 0, "no DESIGN.md references found in {} files", files.len());
    assert!(dangling.is_empty(), "references to missing sections:\n{}", dangling.join("\n"));
}

#[test]
fn every_decided_entry_points_at_a_paragraph_that_exists() {
    const POINTER: &str = "→ EXPERIMENTS.md *Decided*: “";
    let root = repo_root();
    let experiments =
        read(&root.join("EXPERIMENTS.md")).split_whitespace().collect::<Vec<_>>().join(" ");
    let roadmap = read(&root.join("ROADMAP.md"));
    let titles: Vec<&str> = roadmap
        .lines()
        .filter_map(|line| line.split_once(POINTER))
        .map(|(_, rest)| rest.split('”').next().unwrap_or(rest))
        .collect();
    assert!(!titles.is_empty(), "ROADMAP.md's Decided entries point at nothing");
    let missing: Vec<&&str> =
        titles.iter().filter(|title| !experiments.contains(&format!("**{title}**"))).collect();
    assert!(missing.is_empty(), "Decided paragraphs missing from EXPERIMENTS.md: {missing:?}");
}

#[test]
fn references_are_read_across_lists_and_line_breaks() {
    assert_eq!(design_references("see DESIGN.md §8, §10 and §12."), vec![8, 10, 12]);
    assert_eq!(design_references("(`DESIGN.md` §7) and DESIGN §9"), vec![7, 9]);
    assert_eq!(design_references("/// text (DESIGN.md\n/// §13, §4)"), vec![13, 4]);
    assert_eq!(design_references("DESIGN.md §2's table; §5 of the paper"), vec![2]);
    // Built at run time, so this file holds no reference to a missing section.
    let missing = format!("DESIGN.md (§3) and DESIGN.md §{}", 16);
    assert_eq!(design_references(&missing), vec![3, 16]);
}
