//! Terminal dashboard for `patty stats --watch`.
//!
//! Renders one frame of the live view from a [`MetricsRegistry`]
//! snapshot: per-lane utilization bars, the steal ratio, queue depths
//! and fault/cancel/drop counters. Pure string rendering — the CLI owns
//! the refresh loop and the screen-clear escape, so the renderer stays
//! unit-testable byte-for-byte.

use crate::MetricsRegistry;
use std::fmt::Write as _;

/// Width of the utilization bars, in cells.
const BAR_WIDTH: usize = 24;

/// A proportional bar: `value / max` of [`BAR_WIDTH`] cells filled.
/// Any non-zero value shows at least one cell so activity never rounds
/// to invisible.
fn bar(value: u64, max: u64) -> String {
    let filled = if max == 0 || value == 0 {
        0
    } else {
        (((value as u128 * BAR_WIDTH as u128) / max as u128) as usize).clamp(1, BAR_WIDTH)
    };
    let mut out = String::with_capacity(BAR_WIDTH * 3);
    for _ in 0..filled {
        out.push('█');
    }
    for _ in filled..BAR_WIDTH {
        out.push('·');
    }
    out
}

/// Integer percentage of `num / den`, `0` when empty.
fn pct(num: u64, den: u64) -> u64 {
    num.saturating_mul(100).checked_div(den).unwrap_or(0)
}

/// A family value, defaulting to zero when the source never ran.
fn val(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.value(name).unwrap_or(0)
}

/// Render one dashboard frame. `frame` numbers the refresh (0-based on
/// the first paint) so a watcher can tell a live loop from a stall.
pub fn render_dashboard(reg: &MetricsRegistry, title: &str, frame: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "── patty stats: {title} — frame {frame} ──");

    // Executor block: aggregates plus one utilization bar per lane,
    // scaled to the busiest lane of this snapshot.
    let live = val(reg, "patty_executor_lanes_live");
    let spawned = val(reg, "patty_executor_lanes_spawned_total");
    let retired = val(reg, "patty_executor_lanes_retired_total");
    let _ = writeln!(out, "lanes: {live} live / {spawned} spawned ({retired} retired)");
    let lanes = reg.samples("patty_executor_lane_short_executed_total");
    let resident = reg.samples("patty_executor_lane_resident_executed_total");
    let depths = reg.samples("patty_executor_lane_deque_depth_hwm");
    let busiest = lanes.iter().map(|(_, v)| *v).max().unwrap_or(0);
    for (i, (labels, short)) in lanes.iter().enumerate() {
        let id = labels
            .iter()
            .find(|(k, _)| k == "lane")
            .map(|(_, v)| v.as_str())
            .unwrap_or("?");
        let res = resident.get(i).map(|(_, v)| *v).unwrap_or(0);
        let hwm = depths.get(i).map(|(_, v)| *v).unwrap_or(0);
        let _ = writeln!(
            out,
            "  lane {id:>3} │{}│ short {short:>8}  resident {res:>4}  depth hwm {hwm:>4}",
            bar(*short, busiest)
        );
    }

    let attempted = val(reg, "patty_executor_steals_attempted_total");
    let succeeded = val(reg, "patty_executor_steals_succeeded_total");
    let _ = writeln!(
        out,
        "steals: {succeeded}/{attempted} ({}%)   injector pops: {}   parks: {}",
        pct(succeeded, attempted),
        val(reg, "patty_executor_injector_pops_total"),
        val(reg, "patty_executor_parks_total"),
    );
    let _ = writeln!(
        out,
        "tasks: executed {}  helped {}  submitted {}  deque hwm {}",
        val(reg, "patty_executor_tasks_executed_total"),
        val(reg, "patty_executor_tasks_helped_total"),
        val(reg, "patty_executor_short_submitted_total"),
        val(reg, "patty_executor_deque_depth_hwm"),
    );

    // Health block: every counter a fault/cancel/drop path increments.
    let faults: u64 = reg
        .samples("patty_runtime_counter")
        .iter()
        .filter(|(labels, _)| {
            labels.iter().any(|(k, v)| {
                k == "name" && (v.starts_with("fault.") || v.starts_with("cancel."))
            })
        })
        .map(|(_, v)| *v)
        .sum();
    let _ = writeln!(
        out,
        "health: fault/cancel events {faults}  trace drops {}  trace faults {}",
        val(reg, "patty_trace_dropped_events_total"),
        val(reg, "patty_trace_faults_total"),
    );

    // Stage block (present only when a trace was ingested): busy
    // permille as a bar per stage.
    let stages = reg.samples("patty_trace_stage_busy_permille");
    if !stages.is_empty() {
        let items = reg.samples("patty_trace_stage_items_total");
        let _ = writeln!(out, "stages:");
        for (i, (labels, busy)) in stages.iter().enumerate() {
            let name = labels
                .iter()
                .find(|(k, _)| k == "stage")
                .map(|(_, v)| v.as_str())
                .unwrap_or("?");
            let n = items.get(i).map(|(_, v)| *v).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name:<12} │{}│ busy {:>4}‰  items {n:>8}",
                bar(*busy, 1000),
                busy
            );
        }
    }
    let _ = writeln!(
        out,
        "vm: loops {}  traced iters {}  accesses {}",
        val(reg, "patty_vm_profiled_loops"),
        val(reg, "patty_vm_traced_iterations_total"),
        val(reg, "patty_vm_recorded_accesses_total"),
    );

    // Dispatch block (present when a counted VM run was ingested):
    // fused superinstructions by dynamic hits.
    let fused = reg.samples("patty_vm_superinstruction_hits");
    if !fused.is_empty() {
        let sites = reg.samples("patty_vm_superinstruction_sites");
        let _ = writeln!(
            out,
            "vm dispatch: ops {}  fused kinds {}",
            val(reg, "patty_vm_dispatch_ops_total"),
            fused.len(),
        );
        let hottest = fused.iter().map(|(_, v)| *v).max().unwrap_or(0);
        for (i, (labels, hits)) in fused.iter().enumerate() {
            let op = labels
                .iter()
                .find(|(k, _)| k == "op")
                .map(|(_, v)| v.as_str())
                .unwrap_or("?");
            let n = sites.get(i).map(|(_, v)| *v).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {op:<24} │{}│ hits {hits:>9}  sites {n:>4}",
                bar(*hits, hottest)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricKind;

    #[test]
    fn bars_scale_and_never_hide_activity() {
        assert_eq!(bar(0, 100).chars().filter(|c| *c == '█').count(), 0);
        assert_eq!(bar(100, 100).chars().filter(|c| *c == '█').count(), BAR_WIDTH);
        // one item out of a million still paints one cell.
        assert_eq!(bar(1, 1_000_000).chars().filter(|c| *c == '█').count(), 1);
        assert_eq!(bar(5, 0).chars().count(), BAR_WIDTH);
    }

    #[test]
    fn dashboard_renders_lanes_steals_and_health_lines() {
        let mut reg = MetricsRegistry::new();
        let stats = patty_runtime::ExecutorStats {
            lanes_spawned: 2,
            short_submitted: 10,
            tasks_executed: 10,
            steals_attempted: 4,
            steals_succeeded: 2,
            ..patty_runtime::ExecutorStats::default()
        };
        let lanes = vec![
            patty_runtime::LaneSnapshot { lane_id: 0, short_executed: 8, ..Default::default() },
            patty_runtime::LaneSnapshot { lane_id: 1, short_executed: 2, ..Default::default() },
        ];
        reg.ingest_executor(&stats, &lanes);
        reg.set(
            "patty_runtime_counter",
            MetricKind::Counter,
            "named counters",
            &[("name", "fault.caught")],
            3,
        );
        let frame = render_dashboard(&reg, "demo.mini", 2);
        assert!(frame.contains("frame 2"), "{frame}");
        assert!(frame.contains("lane   0"), "{frame}");
        assert!(frame.contains("steals: 2/4 (50%)"), "{frame}");
        assert!(frame.contains("fault/cancel events 3"), "{frame}");
        // lane 0 did 4× the work of lane 1: its bar is strictly longer.
        let cells = |id: &str| {
            frame
                .lines()
                .find(|l| l.contains(&format!("lane   {id}")))
                .unwrap()
                .chars()
                .filter(|c| *c == '█')
                .count()
        };
        assert!(cells("0") > cells("1"), "{frame}");
    }

    #[test]
    fn dashboard_is_deterministic_for_equal_registries() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for reg in [&mut a, &mut b] {
            reg.ingest_executor(&patty_runtime::ExecutorStats::default(), &[]);
        }
        assert_eq!(render_dashboard(&a, "x", 0), render_dashboard(&b, "x", 0));
    }
}
