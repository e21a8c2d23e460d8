//! Tiered compaction: the picker and the merge driver.
//!
//! The engine's tables form a recency-ordered sequence (index 0 is the
//! newest flush); every table may overlap every other, so reads consult
//! them newest-first and both read cost and space amplification grow
//! with the table count. Compaction rewrites a *contiguous run* of
//! tables into one, preserving the run's position in the sequence —
//! contiguity is what keeps newest-wins shadowing correct: merging
//! around a table that holds an intermediate version of a key would
//! resurrect it.
//!
//! The picker is size-tiered in the universal-compaction style. Below
//! `MIN_MERGE` live tables it proposes nothing, whatever the sizes: a
//! young store of one or two flushes is left alone, so the first flushes
//! are not rewritten into one table only to be rewritten again when the
//! next one lands. From `MIN_MERGE` tables on, the first trigger that
//! fires wins:
//!
//! 1. **Space-amplification trigger** — when the bytes above the oldest
//!    table exceed `(MAX_SPACE_AMP - 1) × oldest`, everything merges
//!    into one table. This bounds live bytes at `MAX_SPACE_AMP ×`
//!    logical data once compaction settles.
//! 2. **Ratio runs** — a run grows while the next-older table is at
//!    most `SIZE_RATIO ×` the bytes accumulated so far, i.e. similarly
//!    sized tables merge with their peers instead of repeatedly
//!    rewriting one giant table (bounded write amplification). Runs
//!    shorter than `MIN_MERGE` don't fire; runs cap at `MAX_MERGE`.
//! 3. **Pressure** — above `MAX_LIVE_TABLES` the cheapest contiguous
//!    window merges even when no ratio run exists, so read fan-out
//!    stays bounded under adversarial size distributions.
//!
//! Every merge drops shadowed versions. Tombstones are dropped only when
//! the run includes the oldest table, where nothing older is left for
//! them to hide; the engine makes that check.
//!
//! The thresholds are fixed constants chosen for this engine, not
//! RocksDB's universal-compaction defaults; each constant's comment
//! names its RocksDB counterpart and that default. The engine's
//! maintenance worker is the only caller.

use crate::error::Result;
use crate::iter::{Cursor, Merge};
use crate::sstable::{SsTable, TableBuilder, TableOptions};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Fewest live tables any trigger fires on, and the shortest ratio run
/// worth merging. RocksDB gates every universal trigger on a file count
/// too (`level0_file_num_compaction_trigger`, default 4). Three is also
/// the shortest ratio run, so the gate only holds back the space-amp
/// trigger, which would otherwise fully merge every pair of tables.
const MIN_MERGE: usize = 3;
/// Largest run one merge rewrites. RocksDB's `max_merge_width` is
/// unbounded by default; the cap keeps one merge's input set small.
const MAX_MERGE: usize = 8;
/// A run extends while the next-older table is ≤ `SIZE_RATIO ×` the
/// run's accumulated bytes. RocksDB's `size_ratio` defaults to 1 %
/// (a factor of 1.01); 2.0 lets a run absorb a table as big as itself.
const SIZE_RATIO: f64 = 2.0;
/// Above this live-table count the pressure trigger fires. RocksDB has
/// no such trigger; its nearest knob slows writes at 20 files
/// (`level0_slowdown_writes_trigger`).
const MAX_LIVE_TABLES: usize = 8;
/// Full-merge trigger: live bytes may reach `MAX_SPACE_AMP ×` the
/// oldest table's bytes before everything is rewritten into one table.
/// RocksDB's `max_size_amplification_percent` defaults to 200 (3.0);
/// 1.5 trades more rewriting for less dead weight on disk.
const MAX_SPACE_AMP: f64 = 1.5;

/// What the picker sees of one live table.
#[derive(Debug, Clone, Copy)]
pub struct TableInfo {
    /// Manifest id.
    pub id: u64,
    /// On-disk bytes.
    pub bytes: u64,
}

/// Why a pick fired (surfaced in logs/tests, not behavior-bearing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickReason {
    /// Space-amplification bound exceeded; full merge.
    SpaceAmp,
    /// A size-ratio run of peers.
    Tiered,
    /// Table count over `MAX_LIVE_TABLES`; cheapest window.
    Pressure,
}

/// A chosen compaction: a contiguous newest-first index range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pick {
    /// Indices into the newest-first table list.
    pub range: Range<usize>,
    /// Which trigger fired.
    pub reason: PickReason,
}

/// Picks the next run to merge, or `None` when the sequence is healthy
/// or holds fewer than `MIN_MERGE` tables. `tables` is newest-first.
pub fn pick(tables: &[TableInfo]) -> Option<Pick> {
    let n = tables.len();
    if n < MIN_MERGE {
        return None;
    }
    let total: u64 = tables.iter().map(|t| t.bytes).sum();
    let oldest = tables.last().map_or(0, |t| t.bytes);
    // 1. Space amplification: everything above the oldest table is
    // (over-approximated) dead weight once it exceeds the budget.
    let above = total - oldest;
    if above as f64 > (MAX_SPACE_AMP - 1.0) * oldest as f64 {
        return Some(Pick { range: 0..n, reason: PickReason::SpaceAmp });
    }
    // 2. Ratio runs: longest run wins, newest on ties.
    let mut best: Option<Range<usize>> = None;
    for start in 0..n {
        let mut acc = tables.get(start).map_or(0, |t| t.bytes);
        let mut end = start + 1;
        while end < n && end - start < MAX_MERGE {
            let next = tables.get(end).map_or(u64::MAX, |t| t.bytes);
            if next as f64 <= SIZE_RATIO * acc as f64 {
                acc = acc.saturating_add(next);
                end += 1;
            } else {
                break;
            }
        }
        if end - start >= MIN_MERGE && best.as_ref().is_none_or(|b| end - start > b.len()) {
            best = Some(start..end);
        }
    }
    if let Some(range) = best {
        return Some(Pick { range, reason: PickReason::Tiered });
    }
    // 3. Pressure: merge the cheapest window to cap read fan-out.
    if n > MAX_LIVE_TABLES {
        let w = MIN_MERGE;
        let mut best_start = 0usize;
        let mut best_bytes = u64::MAX;
        for start in 0..=(n - w) {
            let bytes: u64 = tables
                .get(start..start + w)
                .map_or(u64::MAX, |ts| ts.iter().map(|t| t.bytes).sum());
            if bytes < best_bytes {
                best_bytes = bytes;
                best_start = start;
            }
        }
        return Some(Pick { range: best_start..best_start + w, reason: PickReason::Pressure });
    }
    None
}

/// Merges `inputs` (newest-first) into a new table at `out_path`,
/// deduplicating with newest-wins precedence. With `drop_tombstones`
/// the deletes themselves are elided — only sound when the caller
/// verified the run includes the oldest table.
/// Returns the entry count written. The output file is fsynced.
///
/// Each input is read one verified block at a time and its entries are
/// lent, not copied, to the merge; an entry's bytes are copied once,
/// into the output's block buffer. A block that fails verification
/// fails the merge.
pub(crate) fn merge_tables(
    out_path: &Path,
    inputs: &[Arc<SsTable>],
    opts: &TableOptions,
    drop_tombstones: bool,
) -> Result<u64> {
    let expected: u64 = inputs.iter().map(|t| t.entry_count()).sum();
    let cursors = inputs.iter().map(|t| Box::new(t.cursor()) as Box<dyn Cursor>).collect();
    let mut builder = TableBuilder::create(
        out_path,
        usize::try_from(expected).unwrap_or(usize::MAX),
        opts.clone(),
    )?;
    let mut merge = Merge::new(cursors);
    while let Some((key, value)) = merge.next_entry()? {
        if drop_tombstones && value.is_none() {
            continue;
        }
        builder.add(key, value)?;
    }
    let written = builder.entry_count();
    builder.finish()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u64, bytes: u64) -> TableInfo {
        TableInfo { id, bytes }
    }

    #[test]
    fn healthy_sequences_pick_nothing() {
        assert_eq!(pick(&[]), None);
        assert_eq!(pick(&[info(1, 1000)]), None);
        // A small fresh flush over a settled big table: no run, no
        // space-amp breach, under the table cap.
        assert_eq!(pick(&[info(2, 100), info(1, 100_000)]), None);
    }

    #[test]
    fn two_tables_never_merge() {
        const MIB: u64 = 1 << 20;
        // Each pair would breach the space-amp budget or form a run of
        // peers if the table-count gate did not come first.
        for pair in [[4 * MIB, 4 * MIB], [4 * MIB, 100], [100, 4 * MIB]] {
            assert_eq!(pick(&[info(2, pair[0]), info(1, pair[1])]), None, "{pair:?}");
        }
        // A third flush over two equal flushes opens the gate.
        let run = pick(&[info(3, 4 * MIB), info(2, 4 * MIB), info(1, 4 * MIB)]).expect("three");
        assert_eq!(run.reason, PickReason::SpaceAmp);
        assert_eq!(run.range, 0..3);
    }

    #[test]
    fn similar_sized_peers_form_a_run() {
        let tables = [info(4, 90), info(3, 110), info(2, 100), info(1, 100_000)];
        let run = pick(&tables).expect("ratio run");
        assert_eq!(run.reason, PickReason::Tiered);
        assert_eq!(run.range, 0..3, "the big old table stays out of the run");
    }

    #[test]
    fn space_amp_triggers_full_merge() {
        // 60k of newer data over a 100k base: 0.6 > (1.5 - 1).
        let tables = [info(3, 30_000), info(2, 30_000), info(1, 100_000)];
        let run = pick(&tables).expect("space amp");
        assert_eq!(run.reason, PickReason::SpaceAmp);
        assert_eq!(run.range, 0..3, "the run reaches the oldest table");
    }

    #[test]
    fn pressure_fires_above_the_table_cap() {
        // Sizes growing 16× per step defeat the ratio rule and keep the
        // newer bytes far under the space-amp budget; one table over
        // the cap still forces a merge of the cheapest window.
        let tables: Vec<_> =
            (0..MAX_LIVE_TABLES as u64 + 1).map(|i| info(100 - i, 1u64 << (4 * i))).collect();
        let run = pick(&tables).expect("pressure");
        assert_eq!(run.reason, PickReason::Pressure);
        assert_eq!(run.range, 0..MIN_MERGE, "cheapest window is the newest (smallest) tables");
    }

    #[test]
    fn runs_are_capped_at_max_merge() {
        // Ten equal peers over a big base: the space-amp trigger stays
        // quiet, so the ratio path fires and stops at the cap.
        let mut tables: Vec<_> = (0..10).map(|i| info(100 - i, 100)).collect();
        tables.push(info(1, 100_000));
        let run = pick(&tables).expect("run");
        assert_eq!(run.reason, PickReason::Tiered);
        assert_eq!(run.range, 0..MAX_MERGE);
    }
}
