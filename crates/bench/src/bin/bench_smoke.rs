//! CI bench-smoke regression gate.
//!
//! Re-runs the deterministic campus-fabric slice (the live part of
//! Figs. 20/21), the churn/migration phase, the Fig. 15 scalability
//! sweep, the batched data-plane smoke, the flash-crowd/webinar
//! control-plane compilation smoke, the fault-recovery suite, and the
//! capacity-planner admission suite in a cheap configuration; writes
//! `results/BENCH_fabric.json`, `results/BENCH_scale.json`,
//! `results/BENCH_dataplane.json`, `results/BENCH_control.json`,
//! `results/BENCH_fault.json`, and `results/BENCH_capacity.json`
//! (wall-time + trunk-byte + flow-mod + admission + recovery-tick metrics,
//! uploaded as CI artifacts); and **fails** (exit 1) when a key metric
//! drifts more than 20 % from the checked-in `results/` baselines:
//!
//! * `results/fig20_21_fabric_slice.json` — trunk/forwarding packet
//!   counts of the fabric slice,
//! * `results/fig15_scalability_gain.json` — improvement band of the
//!   capacity model.
//!
//! The row-shaped baselines are gated row by row, each run row matched
//! to the baseline row with the same key (`edge`, `link`, `parties`,
//! `scenario`, `enforced`): a drift in one row cannot hide behind a
//! gain in another, and a row on one side only fails by name.
//!
//! Wall times are reported for trend-watching but deliberately not
//! gated — CI runners are not a constant-speed machine; the simulated
//! metrics are deterministic and gate exactly.

use scallop_bench::baseline::{max_field, parse_numeric_objects, rows_of, Gate, Row};
use scallop_bench::capacity::{
    run_capacity_suite, FULL_FLOOR_FPS, TRUNK_BPS as CAPACITY_TRUNK_BPS,
};
use scallop_bench::control::run_control_smoke;
use scallop_bench::dataplane::run_batch_smoke;
use scallop_bench::fabric::{peak_time, run_churn_phase, run_fabric_slice, run_wan_slice};
use scallop_bench::fault::{run_fault_suite, RECOVERY_FLOOR_FPS, RECOVERY_TICK_BOUND};
use scallop_bench::scale::scalability_rows;
use scallop_bench::{kv, results_dir, section, write_json};
use scallop_netsim::time::SimDuration;
use scallop_workload::campus::{CampusModel, CampusParams};
use serde::Serialize;
use std::time::Instant;

const EDGES: usize = 4;
/// Controller shards partitioning meeting ownership (one per edge —
/// the control plane the paper's scaling argument wants).
const SHARDS: usize = 4;
/// Campuses in the federated WAN slice.
const ZONES: usize = 3;
/// Edge switches per campus in the federated WAN slice.
const EDGES_PER_ZONE: usize = 2;
/// Meeting size for the batched data-plane smoke (paper's 25-party
/// working point).
const BATCH_PARTIES: usize = 25;
/// Traffic rounds (bursts) pushed through the data plane.
const BATCH_ROUNDS: usize = 64;

#[derive(Serialize)]
struct FabricSmoke {
    wall_ms_slice: u64,
    wall_ms_churn: u64,
    peak_meetings: f64,
    peak_participants: f64,
    slice_rtp_in_pkts: u64,
    slice_forwarded_pkts: u64,
    slice_trunk_out_pkts: u64,
    slice_trunk_in_pkts: u64,
    slice_frames_decoded: u64,
    slice_shard_meetings_max: u64,
    slice_join_forwards: u64,
    churn_rehomed: u64,
    churn_rehome_count: u64,
    churn_shard_handoffs: u64,
    churn_join_forwards: u64,
    churn_shard_meetings_max: u64,
    churn_min_fps_static: f64,
    churn_min_fps_migrated: f64,
    churn_post_drift_trunk_bytes_static: u64,
    churn_post_drift_trunk_bytes_migrated: u64,
    churn_trunk_bytes_saved: u64,
}

#[derive(Serialize)]
struct ScaleSmoke {
    wall_ms: u64,
    improvement_min_overall: f64,
    improvement_max_overall: f64,
    improvement_min_at_100: f64,
    improvement_max_at_2: f64,
}

fn read_baseline(name: &str) -> Option<Vec<Row>> {
    let path = results_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).ok()?;
    Some(parse_numeric_objects(&text))
}

fn main() {
    let mut gate = Gate::default();

    // ------------------------------------------------------------- //
    section("bench-smoke: campus fabric slice");
    let params = CampusParams::default();
    let population = CampusModel::new(params, 0x7AB20).generate();
    let bin = SimDuration::from_secs(600);
    let (meetings, participants) = CampusModel::concurrency_series(&population, bin);
    let peak_t = peak_time(&meetings);
    let t0 = Instant::now();
    let slice = run_fabric_slice(&population, &params, peak_t, EDGES, SHARDS, 2.0);
    let wall_ms_slice = t0.elapsed().as_millis() as u64;
    kv("slice wall time (ms)", wall_ms_slice);

    section("bench-smoke: churn + migration phase");
    let t0 = Instant::now();
    let stay = run_churn_phase(false, SHARDS);
    let mig = run_churn_phase(true, SHARDS);
    let wall_ms_churn = t0.elapsed().as_millis() as u64;
    kv("churn wall time (ms)", wall_ms_churn);
    kv("controller shards", SHARDS);
    kv(
        "slice meetings per shard",
        format!("{:?}", slice.shard_meetings),
    );
    kv("slice cross-shard joins forwarded", slice.join_forwards);
    kv(
        "churn re-homes / shard handoffs (migrated)",
        format!("{} / {}", mig.rehome_count, mig.shard_handoffs),
    );
    let saved = stay
        .post_drift_trunk_out_bytes
        .saturating_sub(mig.post_drift_trunk_out_bytes);

    let fabric_smoke = FabricSmoke {
        wall_ms_slice,
        wall_ms_churn,
        peak_meetings: meetings.max(),
        peak_participants: participants.max(),
        slice_rtp_in_pkts: slice.edge_rows.iter().map(|r| r.rtp_in_pkts).sum(),
        slice_forwarded_pkts: slice.edge_rows.iter().map(|r| r.forwarded_pkts).sum(),
        slice_trunk_out_pkts: slice.edge_rows.iter().map(|r| r.trunk_out_pkts).sum(),
        slice_trunk_in_pkts: slice.edge_rows.iter().map(|r| r.trunk_in_pkts).sum(),
        slice_frames_decoded: slice.frames_decoded,
        slice_shard_meetings_max: slice.shard_meetings.iter().copied().max().unwrap_or(0) as u64,
        slice_join_forwards: slice.join_forwards,
        churn_rehomed: mig.rehomed as u64,
        churn_rehome_count: mig.rehome_count,
        churn_shard_handoffs: mig.shard_handoffs,
        churn_join_forwards: mig.join_forwards,
        churn_shard_meetings_max: mig.shard_meetings.iter().copied().max().unwrap_or(0) as u64,
        churn_min_fps_static: stay.min_cutover_fps,
        churn_min_fps_migrated: mig.min_cutover_fps,
        churn_post_drift_trunk_bytes_static: stay.post_drift_trunk_out_bytes,
        churn_post_drift_trunk_bytes_migrated: mig.post_drift_trunk_out_bytes,
        churn_trunk_bytes_saved: saved,
    };
    write_json("BENCH_fabric", &[&fabric_smoke]);

    // ------------------------------------------------------------- //
    section("bench-smoke: federated WAN slice");
    let wan_params = CampusParams::continental(ZONES as u32);
    let wan_population = CampusModel::new(wan_params, 0x7AB20).generate();
    let (wan_series, _) = CampusModel::concurrency_series(&wan_population, bin);
    let wan_peak = peak_time(&wan_series);
    let t0 = Instant::now();
    let wan = run_wan_slice(
        &wan_population,
        &wan_params,
        wan_peak,
        ZONES,
        EDGES_PER_ZONE,
        SHARDS,
        2.0,
    );
    kv("wan wall time (ms)", t0.elapsed().as_millis() as u64);
    kv(
        "continental meetings (cross-zone)",
        format!("{} ({})", wan.meetings, wan.cross_zone_meetings),
    );
    kv(
        "meetings homed per zone",
        format!("{:?}", wan.zone_meetings),
    );
    kv(
        "owner shard in home zone",
        format!("{}/{}", wan.owners_in_home_zone, wan.meetings),
    );
    for r in &wan.wan_rows {
        kv(
            &format!(
                "wan link {} (zone {}-{}) relayed/offered",
                r.link, r.zone_a, r.zone_b
            ),
            format!(
                "{} / {} pkts, {} B",
                r.relayed_pkts, r.offered_pkts, r.relayed_bytes
            ),
        );
    }
    // The checked-in baseline must be read before the fresh (and, being
    // deterministic, byte-identical) rows overwrite the file.
    let wan_baseline = read_baseline("BENCH_wan");
    write_json("BENCH_wan", &wan.wan_rows);

    // ------------------------------------------------------------- //
    section("bench-smoke: scalability sweep");
    let t0 = Instant::now();
    let rows = scalability_rows();
    let wall_ms = t0.elapsed().as_millis() as u64;
    let scale_smoke = ScaleSmoke {
        wall_ms,
        improvement_min_overall: rows
            .iter()
            .map(|r| r.improvement_min)
            .fold(f64::MAX, f64::min),
        improvement_max_overall: rows.iter().map(|r| r.improvement_max).fold(0.0, f64::max),
        improvement_min_at_100: rows
            .iter()
            .find(|r| r.participants == 100)
            .map(|r| r.improvement_min)
            .unwrap_or(0.0),
        improvement_max_at_2: rows
            .iter()
            .find(|r| r.participants == 2)
            .map(|r| r.improvement_max)
            .unwrap_or(0.0),
    };
    write_json("BENCH_scale", &[&scale_smoke]);

    // ------------------------------------------------------------- //
    section("bench-smoke: dataplane batch");
    let batch = run_batch_smoke(BATCH_PARTIES, BATCH_ROUNDS);
    kv(
        "parties / rounds",
        format!("{BATCH_PARTIES} / {BATCH_ROUNDS}"),
    );
    kv("pkts processed", batch.pkts_processed);
    kv("replicas emitted", batch.replicas_emitted);
    kv(
        "lookups saved (port/egress/pre)",
        format!(
            "{} / {} / {}",
            batch.port_lookups_saved, batch.egress_lookups_saved, batch.pre_walks_saved
        ),
    );
    kv("dense register lookups", batch.dense_lookups);
    // Read the checked-in baseline before the (deterministic, so
    // byte-identical) fresh report overwrites it.
    let batch_baseline = read_baseline("BENCH_dataplane");
    write_json("BENCH_dataplane", &[&batch]);

    // ------------------------------------------------------------- //
    section("bench-smoke: control-plane compilation");
    let t0 = Instant::now();
    let control_rows = run_control_smoke(SHARDS);
    kv("control wall time (ms)", t0.elapsed().as_millis() as u64);
    let scenario_name = |s: u64| if s == 0 { "flash crowd" } else { "webinar" };
    for row in &control_rows {
        let name = scenario_name(row.scenario);
        kv(
            &format!("{name}: joins (senders) / edges"),
            format!("{} ({}) / {}", row.joins, row.senders, row.edges),
        );
        kv(
            &format!("{name}: installs incr / batch"),
            format!("{} / {}", row.incr_installs, row.batch_installs),
        );
        kv(&format!("{name}: grafted joins"), row.incr_grafts);
    }
    let control_baseline = read_baseline("BENCH_control");
    write_json("BENCH_control", &control_rows);

    // ------------------------------------------------------------- //
    section("bench-smoke: fault recovery");
    let t0 = Instant::now();
    let fault_rows = run_fault_suite();
    kv("fault wall time (ms)", t0.elapsed().as_millis() as u64);
    let fault_name = |s: u64| match s {
        0 => "core kill",
        1 => "trunk cut",
        _ => "edge death",
    };
    for row in &fault_rows {
        kv(
            &format!("{}: blackhole -> recovered fps", fault_name(row.scenario)),
            format!(
                "{:.1} -> {:.1} in {} ticks",
                row.blackhole_fps, row.recovered_fps, row.recovery_ticks
            ),
        );
    }
    let fault_baseline = read_baseline("BENCH_fault");
    write_json("BENCH_fault", &fault_rows);

    // ------------------------------------------------------------- //
    section("bench-smoke: capacity planner admission");
    let t0 = Instant::now();
    let cap_rows = run_capacity_suite();
    kv("capacity wall time (ms)", t0.elapsed().as_millis() as u64);
    let cap_name = |e: u64| if e == 1 { "enforced" } else { "advisory" };
    for row in &cap_rows {
        let name = cap_name(row.enforced);
        kv(
            &format!("{name}: full / thin / refused"),
            format!(
                "{} / {} / {}",
                row.admitted_full, row.admitted_thin, row.refused
            ),
        );
        kv(
            &format!("{name}: trunk booked vs budget (Mb/s)"),
            format!(
                "{:.1} / {:.1} ({} links over)",
                row.trunk_out_bps as f64 / 1e6,
                CAPACITY_TRUNK_BPS as f64 / 1e6,
                row.oversubscribed_links
            ),
        );
        kv(
            &format!("{name}: full / thin viewer fps"),
            format!("{:.1} / {:.1}", row.full_fps, row.thin_fps),
        );
    }
    let capacity_baseline = read_baseline("BENCH_capacity");
    write_json("BENCH_capacity", &cap_rows);

    // ------------------------------------------------------------- //
    section("regression gate (>20% drift vs checked-in results/)");
    match read_baseline("fig20_21_fabric_slice") {
        Some(base) => gate.check_rows(
            "fabric slice",
            "edge",
            &["rtp_in_pkts", "forwarded_pkts", "trunk_out_pkts"],
            &[],
            &base,
            &rows_of(&slice.edge_rows),
        ),
        None => gate
            .failures
            .push("missing baseline results/fig20_21_fabric_slice.json".into()),
    }
    match read_baseline("fig15_scalability_gain") {
        Some(base) => {
            gate.check_within(
                "scalability: min improvement overall",
                base.iter()
                    .filter_map(|o| o.get("improvement_min"))
                    .fold(f64::MAX, |a, &b| a.min(b)),
                scale_smoke.improvement_min_overall,
            );
            gate.check_within(
                "scalability: max improvement overall",
                max_field(&base, "improvement_max"),
                scale_smoke.improvement_max_overall,
            );
        }
        None => gate
            .failures
            .push("missing baseline results/fig15_scalability_gain.json".into()),
    }
    // Churn invariants (no historical baseline needed: these define the
    // migration feature's floor).
    gate.check(
        "churn: migration re-homes the drifted meeting",
        mig.rehomed,
        "rebalance never re-homed".into(),
    );
    gate.check(
        "churn: migration saves trunk bytes post-drift",
        saved > 0,
        format!(
            "static window {} B vs migrated {} B",
            stay.post_drift_trunk_out_bytes, mig.post_drift_trunk_out_bytes
        ),
    );
    gate.check(
        "churn: fps floor holds through cutover (migrated)",
        mig.min_cutover_fps > 24.0,
        format!("min fps {:.1}", mig.min_cutover_fps),
    );
    // Shard invariants: control load must balance — the bounded-loads
    // sharding function guarantees no shard owns more than
    // ceil(meetings/shards) + 1 meetings, slice and churn phase alike.
    let slice_cap = (slice.meetings.div_ceil(SHARDS) + 1) as u64;
    let slice_max = fabric_smoke.slice_shard_meetings_max;
    gate.check(
        "shards: slice ownership balanced",
        slice_max <= slice_cap,
        format!(
            "max {slice_max} meetings on one shard, cap ceil({}/{SHARDS})+1 = {slice_cap}: {:?}",
            slice.meetings, slice.shard_meetings
        ),
    );
    let churn_meetings: usize = mig.shard_meetings.iter().sum();
    let churn_cap = (churn_meetings.div_ceil(SHARDS) + 1) as u64;
    let churn_max = fabric_smoke.churn_shard_meetings_max;
    gate.check(
        "shards: churn-phase ownership balanced",
        churn_max <= churn_cap,
        format!(
            "max {churn_max} meetings on one shard, cap ceil({churn_meetings}/{SHARDS})+1 = {churn_cap}: {:?}",
            mig.shard_meetings
        ),
    );
    gate.check(
        "shards: cross-shard joins are exercised and forwarded",
        slice.join_forwards > 0,
        "no join ever crossed a shard boundary".into(),
    );
    // The churn drift's single re-home (edge 0 -> 1) changes the
    // meeting's ring key onto another shard, so exactly one ownership
    // handoff must ride along with it — this is the deterministic
    // teeth of the churn-phase shard coverage (the balance check above
    // cannot fail with one meeting).
    gate.check(
        "shards: churn re-home carries its ownership handoff",
        mig.rehome_count == 1 && mig.shard_handoffs == 1,
        format!(
            "re-homes {} / handoffs {} (expected 1 / 1)",
            mig.rehome_count, mig.shard_handoffs
        ),
    );
    // Federated WAN invariants. `offered_pkts` is the media+SR load
    // attributed to each link *once per remote zone*; a link relaying
    // far more than that is fanning a zone out twice over the WAN, and
    // a link no meeting spans must stay silent.
    gate.check(
        "wan: slice exercises cross-zone meetings",
        wan.cross_zone_meetings >= 1 && wan.frames_decoded > 0,
        format!(
            "{} cross-zone meetings, {} frames",
            wan.cross_zone_meetings, wan.frames_decoded
        ),
    );
    for r in &wan.wan_rows {
        gate.check(
            &format!("wan link {}: relay routes every packet", r.link),
            r.unroutable_pkts == 0,
            format!("{} unroutable packets", r.unroutable_pkts),
        );
        if r.offered_pkts > 0 {
            gate.check(
                &format!("wan link {}: media crosses at least once", r.link),
                r.relayed_pkts as f64 >= 0.90 * r.offered_pkts as f64,
                format!("relayed {} vs offered {}", r.relayed_pkts, r.offered_pkts),
            );
            gate.check(
                &format!(
                    "wan link {}: media crosses only once per remote zone",
                    r.link
                ),
                r.relayed_pkts as f64 <= 1.25 * r.offered_pkts as f64,
                format!("relayed {} vs offered {}", r.relayed_pkts, r.offered_pkts),
            );
        } else {
            gate.check(
                &format!("wan link {}: unspanned link stays silent", r.link),
                r.relayed_pkts == 0,
                format!("{} packets on a link no meeting spans", r.relayed_pkts),
            );
        }
    }
    gate.check(
        "wan: zone-affine sharding keeps owners in the home zone",
        wan.owners_in_home_zone as usize == wan.meetings,
        format!("{}/{} owners home", wan.owners_in_home_zone, wan.meetings),
    );
    gate.check(
        "wan: zone telemetry accounts for every meeting",
        wan.zone_meetings.iter().sum::<usize>() == wan.meetings && wan.cross_zone_handoffs == 0,
        format!(
            "zone meetings {:?} (total {}), {} cross-zone handoffs",
            wan.zone_meetings, wan.meetings, wan.cross_zone_handoffs
        ),
    );
    // Batched-forwarding invariants: a burst must reproduce its packets
    // processed one by one exactly, and the memo/registers must
    // actually fire on a realistic mix (a memo that never hit would
    // still be "equivalent").
    gate.check(
        "batch: one burst matches its packets one by one, byte-for-byte",
        batch.equivalent == 1,
        "forwards, punt order, or counters diverged".into(),
    );
    gate.check(
        "batch: dense SoA registers serve lookups",
        batch.dense_lookups > 0,
        "every lookup fell back to the exact table".into(),
    );
    match batch_baseline {
        Some(base) => gate.check_rows(
            "batch",
            "parties",
            &[
                "pkts_processed",
                "replicas_emitted",
                "batches",
                "port_lookups_saved",
                "egress_lookups_saved",
            ],
            &[],
            &base,
            &rows_of(&[&batch]),
        ),
        None => gate
            .failures
            .push("missing baseline results/BENCH_dataplane.json".into()),
    }
    match wan_baseline {
        Some(base) => gate.check_rows(
            "wan",
            "link",
            &["relayed_bytes"],
            &[],
            &base,
            &rows_of(&wan.wan_rows),
        ),
        None => gate
            .failures
            .push("missing baseline results/BENCH_wan.json".into()),
    }
    // Control-plane compilation invariants: both runs pass the fabric
    // check (installed state and ledger equal a rebuild of them, nothing
    // orphaned), and grafting bills O(1) flow-mods per join.
    for row in &control_rows {
        let name = scenario_name(row.scenario);
        gate.check(
            &format!("control {name}: join-by-join compile passes its check"),
            row.equivalent == 1,
            "installed state differs from its rebuild or holds an orphan".into(),
        );
        gate.check(
            &format!("control {name}: batched admission passes its check"),
            row.batch_equivalent == 1,
            "installed state differs from its rebuild or holds an orphan".into(),
        );
        gate.check(
            &format!("control {name}: installs stay O(1) per join"),
            row.incr_installs <= 16 * row.joins,
            format!("{} installs for {} joins", row.incr_installs, row.joins),
        );
    }
    match control_baseline {
        Some(base) => gate.check_rows(
            "control",
            "scenario",
            &["incr_installs", "batch_installs"],
            &[],
            &base,
            &rows_of(&control_rows),
        ),
        None => gate
            .failures
            .push("missing baseline results/BENCH_control.json".into()),
    }
    // Fault-recovery invariants: every failure class must come back
    // above the fabric floor inside the documented bound and strand
    // nothing.
    for row in &fault_rows {
        let name = fault_name(row.scenario);
        gate.check(
            &format!("fault {name}: recovers above the fabric floor"),
            row.recovered_fps >= RECOVERY_FLOOR_FPS,
            format!("recovered to {:.1} fps", row.recovered_fps),
        );
        gate.check(
            &format!("fault {name}: recovery within the tick bound"),
            row.recovery_ticks <= RECOVERY_TICK_BOUND,
            format!("{} ticks (bound {RECOVERY_TICK_BOUND})", row.recovery_ticks),
        );
        gate.check(
            &format!("fault {name}: zero stranded meetings"),
            row.stranded_meetings == 0,
            format!("{} meetings stranded", row.stranded_meetings),
        );
    }
    gate.check(
        "fault: data-plane faults visibly blackhole before repair",
        fault_rows[0].blackhole_fps < 5.0 && fault_rows[1].blackhole_fps < 5.0,
        format!(
            "core-kill {:.1} fps, trunk-cut {:.1} fps during impact",
            fault_rows[0].blackhole_fps, fault_rows[1].blackhole_fps
        ),
    );
    match fault_baseline {
        Some(base) => gate.check_rows(
            "fault",
            "scenario",
            &["recovered_fps", "recovery_ticks", "packets_failstopped"],
            &[],
            &base,
            &rows_of(&fault_rows),
        ),
        None => gate
            .failures
            .push("missing baseline results/BENCH_fault.json".into()),
    }
    // Capacity-planner invariants: under enforcement no link may ever
    // be booked above budget and the refusals must be typed; without
    // enforcement the identical join sequence must visibly overrun the
    // trunk (the contrast IS the feature). Both rows must reconcile
    // the load ledger to zero after full teardown — a leak here means
    // a debit with no matching credit on some leave/GC path.
    let (enforced, advisory) = (&cap_rows[0], &cap_rows[1]);
    gate.check(
        "capacity enforced: zero oversubscribed links",
        enforced.oversubscribed_links == 0 && enforced.trunk_out_bps <= CAPACITY_TRUNK_BPS,
        format!(
            "{} links over budget, trunk booked {} bps (budget {CAPACITY_TRUNK_BPS})",
            enforced.oversubscribed_links, enforced.trunk_out_bps
        ),
    );
    gate.check(
        "capacity enforced: all three admission outcomes exercised",
        enforced.admitted_full >= 1 && enforced.admitted_thin >= 1 && enforced.refused >= 1,
        format!(
            "full {} / thin {} / refused {}",
            enforced.admitted_full, enforced.admitted_thin, enforced.refused
        ),
    );
    gate.check(
        "capacity enforced: every refusal carries a typed trunk reason",
        enforced.refused_trunk == enforced.refused,
        format!(
            "{} trunk-typed of {} refusals",
            enforced.refused_trunk, enforced.refused
        ),
    );
    gate.check(
        "capacity enforced: admitted-full viewers hold the fps floor",
        enforced.full_fps >= FULL_FLOOR_FPS,
        format!("slowest full viewer at {:.1} fps", enforced.full_fps),
    );
    gate.check(
        "capacity enforced: thin viewers degraded, not frozen",
        enforced.thin_fps > 5.0 && enforced.thin_fps < FULL_FLOOR_FPS,
        format!("thin viewer at {:.1} fps", enforced.thin_fps),
    );
    gate.check(
        "capacity advisory: oversubscription is visible unenforced",
        advisory.refused == 0
            && advisory.oversubscribed_links >= 1
            && advisory.trunk_out_bps > CAPACITY_TRUNK_BPS,
        format!(
            "{} refusals, {} links over, trunk booked {} bps",
            advisory.refused, advisory.oversubscribed_links, advisory.trunk_out_bps
        ),
    );
    gate.check(
        "capacity: ledger reconciles to zero after teardown (both rows)",
        enforced.reconciled_after_teardown == 1 && advisory.reconciled_after_teardown == 1,
        format!(
            "enforced {} / advisory {}",
            enforced.reconciled_after_teardown, advisory.reconciled_after_teardown
        ),
    );
    match capacity_baseline {
        // The refusal count is deterministic — gate it exactly, not
        // within the drift band (a planner that starts refusing more or
        // fewer joins changed admission semantics, not speed).
        Some(base) => gate.check_rows(
            "capacity",
            "enforced",
            &[
                "admitted_full",
                "admitted_thin",
                "trunk_out_bps",
                "full_fps",
                "thin_fps",
            ],
            &["refused"],
            &base,
            &rows_of(&cap_rows),
        ),
        None => gate
            .failures
            .push("missing baseline results/BENCH_capacity.json".into()),
    }

    if gate.passed() {
        kv("gate", "PASS");
    } else {
        kv("gate", "FAIL");
        for f in &gate.failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}
