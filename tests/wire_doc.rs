//! Keeps `docs/WIRE.md`'s kind tables in step with the code's: the
//! request table of §4, the response table of §5 and the `Checked`
//! verdict table must list exactly the kinds the `wire_kinds!` tables
//! declare, with the same tags, in tag order, and each row's body column
//! must name the kind's fields in wire order. A field carried by the
//! extension block is named `extensions` there.

use dpc::service::wire::{CheckVerdictKind, RequestKind, ResponseKind};

const SPEC: &str = include_str!("../docs/WIRE.md");

/// One kind as the code declares it: name, tag, fields with codecs.
type Kind = (String, u8, &'static [(&'static str, &'static str)]);

/// The rows of the first markdown table after `anchor`: `(name, tag,
/// body)`, with the name's backticks stripped.
fn doc_table(anchor: &str) -> Vec<(String, u8, String)> {
    let at = SPEC
        .find(anchor)
        .unwrap_or_else(|| panic!("docs/WIRE.md lost {anchor:?}"));
    let mut rows = Vec::new();
    let table = SPEC[at..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .skip(2) // header and separator
        .take_while(|l| l.starts_with('|'));
    for line in table {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, name, tag, body, _] = cells[..] else {
            panic!("docs/WIRE.md: malformed table row {line:?}");
        };
        let tag = tag
            .parse()
            .unwrap_or_else(|_| panic!("docs/WIRE.md: bad tag in {line:?}"));
        rows.push((name.trim_matches('`').to_string(), tag, body.to_string()));
    }
    rows
}

/// Compares the table after `anchor` with the code's kinds.
fn check(anchor: &str, mut kinds: Vec<Kind>) {
    kinds.sort_by_key(|k| k.1);
    let doc = doc_table(anchor);
    let documented: Vec<(&str, u8)> = doc.iter().map(|(n, t, _)| (n.as_str(), *t)).collect();
    let declared: Vec<(&str, u8)> = kinds.iter().map(|(n, t, _)| (n.as_str(), *t)).collect();
    assert_eq!(
        documented, declared,
        "docs/WIRE.md's table after {anchor:?} lists other kinds or tags than the code, or in another order"
    );
    for ((name, _, body), (_, _, fields)) in doc.iter().zip(&kinds) {
        let mut from = 0;
        for &(field, codec) in *fields {
            let word = if codec == "Extensions" {
                "extensions"
            } else {
                field
            };
            let Some(at) = body[from..].find(&format!("`{word}`")) else {
                panic!("docs/WIRE.md: `{name}` does not name `{word}` after its earlier fields: {body:?}");
            };
            from += at + word.len() + 2;
        }
    }
}

#[test]
fn wire_md_kind_tables_match_the_code() {
    check(
        "## 4. Request bodies",
        RequestKind::ALL
            .iter()
            .map(|&k| (format!("{k:?}"), k as u8, k.fields()))
            .collect(),
    );
    check(
        "## 5. Response bodies",
        ResponseKind::ALL
            .iter()
            .map(|&k| (format!("{k:?}"), k as u8, k.fields()))
            .collect(),
    );
    check(
        "`Checked` verdicts",
        CheckVerdictKind::ALL
            .iter()
            .map(|&k| (format!("{k:?}"), k as u8, k.fields()))
            .collect(),
    );
}
