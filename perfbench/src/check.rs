//! The correctness gate: served answers against a standalone `Searcher`
//! on the epoch they name (bit for bit), and against the iterative RWR
//! oracle of `kdash-baselines` on that epoch's graph.

use kdash_core::{KdashError, KdashIndex, Searcher, TopKResult};
use kdash_graph::NodeId;

/// Proximities closer than this count as tied: the oracle converges to
/// an L1 change below 1e-12, and proximities lie in [0, 1].
pub const TIE: f64 = 1e-9;

/// Whether two answers are the same bit for bit (typed errors equal).
pub fn bit_identical(
    a: &Result<TopKResult, KdashError>,
    b: &Result<TopKResult, KdashError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.items.len() == b.items.len()
                && a.items.iter().zip(&b.items).all(|(x, y)| {
                    x.node == y.node && x.proximity.to_bits() == y.proximity.to_bits()
                })
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Replays `q` on a standalone searcher over `index` and compares.
pub fn replay_mismatch(
    index: &KdashIndex,
    q: NodeId,
    k: usize,
    served: &Result<TopKResult, KdashError>,
) -> Option<String> {
    let replay = Searcher::new(index).top_k(q, k);
    (!bit_identical(&replay, served)).then(|| {
        format!(
            "query {q} at epoch {}: served {served:?}, standalone {replay:?}",
            index.update_epoch()
        )
    })
}

/// Checks a served top-k against the oracle's full proximity vector:
/// the same nodes in the same order, up to ties within [`TIE`]. Order
/// and membership are judged on the oracle's values. A served proximity
/// must match the oracle's within [`TIE`]; a `certified` answer (from a
/// sparsified index) is promised only to within half the smallest gap
/// that decides its order, so its values get that much more room.
pub fn oracle_mismatch(
    oracle: &[f64],
    k: usize,
    served: &TopKResult,
    certified: bool,
) -> Option<String> {
    let want = k.min(oracle.len());
    if served.items.len() != want {
        return Some(format!("{} items, expected {want}", served.items.len()));
    }
    let truth: Vec<f64> = served
        .items
        .iter()
        .map(|r| oracle[r.node as usize])
        .collect();
    for (rank, pair) in truth.windows(2).enumerate() {
        if pair[1] > pair[0] + TIE {
            return Some(format!("ranks {rank} and {} are out of order", rank + 1));
        }
    }
    let mut in_answer = vec![false; oracle.len()];
    for item in &served.items {
        in_answer[item.node as usize] = true;
    }
    let outside = (0..oracle.len())
        .filter(|&v| !in_answer[v])
        .max_by(|&a, &b| oracle[a].total_cmp(&oracle[b]));
    let floor = truth.last().copied().unwrap_or(f64::INFINITY);
    if let Some(v) = outside.filter(|&v| oracle[v] > floor + TIE) {
        return Some(format!(
            "node {v} (oracle {:.15}) beats the k-th answer {floor:.15}",
            oracle[v]
        ));
    }
    let slack = if certified {
        let mut decisive: Vec<f64> = truth.clone();
        decisive.extend(outside.map(|v| oracle[v]));
        decisive
            .windows(2)
            .map(|p| p[0] - p[1])
            .fold(f64::INFINITY, f64::min)
            / 2.0
    } else {
        0.0
    };
    served
        .items
        .iter()
        .zip(&truth)
        .enumerate()
        .find_map(|(rank, (item, &t))| {
            ((item.proximity - t).abs() > TIE + slack).then(|| {
                format!(
                    "rank {rank}: node {} served {:.15} but the oracle has {t:.15}",
                    item.node, item.proximity
                )
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_core::{RankedNode, SearchStats};

    fn answer(items: &[(NodeId, f64)]) -> TopKResult {
        TopKResult {
            items: items
                .iter()
                .map(|&(node, proximity)| RankedNode { node, proximity })
                .collect(),
            stats: SearchStats::default(),
        }
    }

    const ORACLE: [f64; 5] = [0.5, 0.2, 0.2, 0.05, 0.25];

    #[test]
    fn exact_and_tied_orders_pass() {
        let tied_a = answer(&[(0, 0.5), (4, 0.25), (1, 0.2)]);
        let tied_b = answer(&[(0, 0.5), (4, 0.25), (2, 0.2)]);
        assert_eq!(oracle_mismatch(&ORACLE, 3, &tied_a, false), None);
        assert_eq!(oracle_mismatch(&ORACLE, 3, &tied_b, false), None);
    }

    #[test]
    fn certified_values_may_miss_by_less_than_half_the_deciding_gap() {
        // The gaps among 0.5, 0.25, 0.2 and the best node left out (0.05):
        // the smallest is 0.05, so certified values may miss by < 0.025.
        let oracle = [0.5, 0.2, 0.05, 0.05, 0.25];
        let close = answer(&[(0, 0.51), (4, 0.24), (1, 0.21)]);
        assert_eq!(oracle_mismatch(&oracle, 3, &close, true), None);
        assert!(oracle_mismatch(&oracle, 3, &close, false).is_some());
        let far = answer(&[(0, 0.5), (4, 0.22), (1, 0.2)]);
        assert!(oracle_mismatch(&oracle, 3, &far, true).is_some());
    }

    #[test]
    fn wrong_sets_orders_and_values_fail() {
        for certified in [false, true] {
            let wrong_set = answer(&[(0, 0.5), (4, 0.25), (3, 0.05)]);
            assert!(oracle_mismatch(&ORACLE, 3, &wrong_set, certified).is_some());
            let wrong_order = answer(&[(0, 0.5), (1, 0.2), (4, 0.25)]);
            assert!(oracle_mismatch(&ORACLE, 3, &wrong_order, certified).is_some());
            let short = answer(&[(0, 0.5)]);
            assert!(oracle_mismatch(&ORACLE, 3, &short, certified).is_some());
        }
        let wrong_value = answer(&[(0, 0.5), (4, 0.2500001), (1, 0.2)]);
        assert!(oracle_mismatch(&ORACLE, 3, &wrong_value, false).is_some());
    }

    #[test]
    fn bit_identity_distinguishes_the_last_bit() {
        let a = Ok(answer(&[(0, 0.5)]));
        let b = Ok(answer(&[(0, f64::from_bits(0.5f64.to_bits() + 1))]));
        assert!(bit_identical(&a, &a.clone()));
        assert!(!bit_identical(&a, &b));
        let e: Result<TopKResult, KdashError> = Err(KdashError::InvalidThreshold { theta: -1.0 });
        assert!(!bit_identical(&a, &e));
    }
}
