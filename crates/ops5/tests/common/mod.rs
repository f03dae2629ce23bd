//! The programs the front-end pins are taken on: the ledger's generated
//! sources (Weaver 12x12 is `weaver`'s, Weaver 6x6 `serve-churn`'s; a Weaver
//! source depends on its `kinds` only), Rubik, both Tourney variants, the
//! corpus under `programs/` and `ledger/steady.ops` (read, never edited).

use std::path::Path;
use workloads::{rubik, tourney, weaver};

pub fn programs() -> Vec<(String, String)> {
    let mut out = vec![
        ("weaver12".to_string(), weaver::generate_source(36)),
        ("weaver6".to_string(), weaver::generate_source(12)),
        ("rubik".to_string(), rubik::generate_source()),
        (
            "tourney".to_string(),
            tourney::generate_source(tourney::Variant::Pathological),
        ),
        (
            "tourney_fixed".to_string(),
            tourney::generate_source(tourney::Variant::Fixed),
        ),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut corpus: Vec<_> = std::fs::read_dir(root.join("programs"))
        .expect("programs/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ops"))
        .collect();
    corpus.sort();
    corpus.push(root.join("ledger/steady.ops"));
    for path in corpus {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        out.push((name, src));
    }
    out
}
