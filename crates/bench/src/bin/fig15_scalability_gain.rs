//! Fig. 15 — Scallop's scalability gain over a 32-core server.
//!
//! For each meeting size the improvement factor is computed across
//! sender counts and Scallop variants (NRA/RA-R/RA-SR × S-LM/S-LR); the
//! blue region of the figure is the min–max band, and the headline
//! "7–210×" is the band across the full sweep.

use scallop_bench::scale::scalability_rows;
use scallop_bench::{f, kv, section, series_table, write_json};
use scallop_core::capacity::{CapacityModel, TreeDesignKind};
use scallop_dataplane::seqrewrite::SeqRewriteMode;

fn main() {
    section("Fig. 15: scalability improvement over a 32-core software SFU");
    let model = CapacityModel::default();
    // The sweep itself is shared with the CI bench-smoke gate
    // (`scallop_bench::scale`) so baseline comparisons stay
    // apples-to-apples.
    let rows = scalability_rows();

    series_table(
        &["parts", "impr min", "impr max"],
        &rows
            .iter()
            .filter(|r| r.participants % 10 == 0 || r.participants <= 4)
            .map(|r| {
                vec![
                    r.participants.to_string(),
                    f(r.improvement_min, 1),
                    f(r.improvement_max, 1),
                ]
            })
            .collect::<Vec<_>>(),
    );

    section("paper anchors");
    let (lo, hi) = model.improvement_range(100);
    kv(
        "improvement band @ provisioned 6 Mb/s streams",
        format!("{}x - {}x", f(lo, 1), f(hi, 1)),
    );
    // At in-call media rates the bandwidth ceiling moves up; the paper's
    // 210x upper bound sits between the two accountings: the band's upper
    // end is below it at provisioned 6 Mb/s streams and above it at
    // in-call 2.25 Mb/s ones (the two "improvement band" lines).
    let in_call = CapacityModel {
        peak_stream_bps: 2.25e6,
        ..CapacityModel::default()
    };
    let (lo2, hi2) = in_call.improvement_range(100);
    kv(
        "improvement band @ in-call 2.25 Mb/s streams (paper: 7-210x)",
        format!("{}x - {}x", f(lo2, 1), f(hi2, 1)),
    );
    kv(
        "two-party improvement (533K / 4.8K)",
        format!(
            "{}x",
            f(
                model.two_party_meetings() / model.software_meetings(2, 2),
                1
            )
        ),
    );
    // Linear growth check between n = 40 and n = 80 (tree-bound line).
    let g40 = model.improvement(40, 40, TreeDesignKind::RaSr, SeqRewriteMode::LowMemory);
    let g80 = model.improvement(80, 80, TreeDesignKind::RaSr, SeqRewriteMode::LowMemory);
    kv(
        "growth 40->80 participants (linear => ~2x)",
        f(g80 / g40, 2),
    );

    write_json("fig15_scalability_gain", &rows);
}
