//! Table I — dataset statistics: File#, Rule#, Vocabulary Size.
//!
//! The paper's corpora are real-world datasets (Yelp COVID-19, NSFRAA,
//! two Wikipedia dumps); ours are the synthetic equivalents from
//! `ntadoc-datagen`, so absolute counts are smaller, but the shape —
//! file-count ordering (B ≫ D > C > A), rule and vocabulary growth with
//! corpus size — matches.

use crate::{geomean, Emitter, Harness};
use ntadoc_pmem::Json;

pub fn run(h: &Harness, em: &mut Emitter) {
    let mut ratios = Vec::new();
    for spec in h.specs() {
        let comp = h.dataset(&spec);
        let stats = comp.grammar.stats();
        em.row([
            ("dataset", Json::from(spec.name)),
            ("files", Json::U64(comp.file_count() as u64)),
            ("rules", Json::U64(stats.rule_count as u64)),
            ("vocabulary", Json::U64(stats.vocabulary as u64)),
            ("words", Json::U64(stats.expanded_words)),
            ("compression_ratio", Json::F64(comp.grammar.compression_ratio())),
        ]);
        ratios.push(comp.grammar.compression_ratio());
    }
    em.headline("compression_ratio_geomean", geomean(&ratios));
}
