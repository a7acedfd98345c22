//! User-level CDPC via selective page touching (the Digital UNIX path).
//!
//! Digital UNIX's bin-hopping policy assigns colors in fault *order*, so a
//! program can obtain any balanced coloring **without kernel modification**
//! by touching its pages in a computed order at start-up. The paper uses
//! this trick to implement both page coloring and CDPC on the AlphaServer.
//!
//! The catch: bin hopping hands out colors cyclically, so an arbitrary
//! vpn→color assignment is only realizable when the desired colors, taken in
//! some page order, form the cyclic sequence `s, s+1, s+2, …` for some start
//! `s`. CDPC's final round-robin color-assignment step guarantees exactly
//! this — which is why the authors could use the touch trick at all.
//!
//! [`touch_order`] computes the order; [`realizable`] checks the
//! precondition and reports the first page that breaks it.

use crate::addr::{Color, ColorSpace, Vpn};

/// Why a desired coloring cannot be realized by touching pages under a
/// bin-hopping kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrealizableColoring {
    /// The page whose desired color breaks the cyclic sequence.
    pub vpn: Vpn,
    /// The color the cyclic sequence requires at that point.
    pub expected: Color,
    /// The color the hint table asked for.
    pub got: Color,
}

impl std::fmt::Display for UnrealizableColoring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coloring not realizable under bin hopping: {} needs {} but cyclic order requires {}",
            self.vpn, self.got, self.expected
        )
    }
}

impl std::error::Error for UnrealizableColoring {}

/// Computes the touch order that makes a bin-hopping kernel produce the
/// desired `(vpn, color)` assignment.
///
/// `assignment` must already be in the coloring order produced by the CDPC
/// algorithm (colors cycling round-robin). The returned vector is the
/// sequence of pages to touch, starting from the page whose desired color
/// matches `kernel_cursor` (the bin-hopping counter's current position).
///
/// # Errors
///
/// Returns [`UnrealizableColoring`] if the desired colors do not form a
/// cyclic round-robin sequence in the given order.
pub fn touch_order(
    assignment: &[(Vpn, Color)],
    colors: ColorSpace,
    kernel_cursor: Color,
) -> Result<Vec<Vpn>, UnrealizableColoring> {
    realizable(assignment, colors)?;
    if assignment.is_empty() {
        return Ok(Vec::new());
    }
    // Rotate so the first touched page's desired color equals the kernel
    // cursor; bin hopping then walks the cycle in lock step. Rotation is
    // only sound when the assignment length is a multiple of the color
    // count (otherwise the wrap point breaks the +1 sequence). When it is
    // not — or no page wants the cursor color — keep the given order and
    // let the caller align the cursor with [`burn_count`] dummy faults.
    let rotatable = assignment
        .len()
        .is_multiple_of(colors.num_colors() as usize);
    let first = if rotatable {
        assignment
            .iter()
            .position(|&(_, c)| c == kernel_cursor)
            .unwrap_or(0)
    } else {
        0
    };
    Ok(assignment[first..]
        .iter()
        .chain(assignment[..first].iter())
        .map(|&(v, _)| v)
        .collect())
}

/// Number of dummy page faults needed to advance the bin-hopping cursor from
/// `kernel_cursor` to the first color in `assignment`.
///
/// Zero when the assignment is empty or already aligned.
pub fn burn_count(assignment: &[(Vpn, Color)], colors: ColorSpace, kernel_cursor: Color) -> u32 {
    match assignment.first() {
        Some(&(_, first)) => colors.distance(kernel_cursor, first),
        None => 0,
    }
}

/// Checks that the colors of `assignment`, in order, form a cyclic
/// round-robin sequence (each color is its predecessor plus one, modulo the
/// color count).
///
/// # Errors
///
/// Returns the first violating page.
pub fn realizable(
    assignment: &[(Vpn, Color)],
    colors: ColorSpace,
) -> Result<(), UnrealizableColoring> {
    for window in assignment.windows(2) {
        let (_, prev) = window[0];
        let (vpn, got) = window[1];
        let expected = colors.advance(prev, 1);
        if got != expected {
            return Err(UnrealizableColoring { vpn, expected, got });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs() -> ColorSpace {
        ColorSpace::with_colors(4)
    }

    fn rr(vpns: &[u64], start: u32) -> Vec<(Vpn, Color)> {
        vpns.iter()
            .enumerate()
            .map(|(i, &v)| (Vpn(v), Color((start + i as u32) % 4)))
            .collect()
    }

    #[test]
    fn round_robin_assignment_is_realizable() {
        assert_eq!(realizable(&rr(&[9, 3, 7, 1, 5], 2), cs()), Ok(()));
    }

    #[test]
    fn broken_sequence_is_reported() {
        let mut a = rr(&[0, 1, 2], 0);
        a[2].1 = Color(3); // should be 2
        let err = realizable(&a, cs()).unwrap_err();
        assert_eq!(err.vpn, Vpn(2));
        assert_eq!(err.expected, Color(2));
        assert_eq!(err.got, Color(3));
    }

    #[test]
    fn touch_order_rotates_to_kernel_cursor() {
        // Desired colors 2,3,0,1 — cursor at 0 → start touching at the page
        // that wants color 0.
        let a = rr(&[10, 11, 12, 13], 2);
        let order = touch_order(&a, cs(), Color(0)).unwrap();
        assert_eq!(order, vec![Vpn(12), Vpn(13), Vpn(10), Vpn(11)]);
    }

    #[test]
    fn touch_order_replays_through_bin_hopping() {
        use crate::policy::{BinHopping, MappingPolicy};
        // Length 8 = 2 full color cycles: rotation applies, no burn needed.
        let a = rr(&[4, 9, 2, 7, 0, 5, 11, 13], 1);
        let order = touch_order(&a, cs(), Color(0)).unwrap();
        let mut bh = BinHopping::new(cs());
        let mut got = std::collections::BTreeMap::new();
        for vpn in order {
            got.insert(vpn, bh.preferred_color(vpn).color.unwrap());
        }
        for (vpn, want) in a {
            assert_eq!(got[&vpn], want, "page {vpn} got the wrong color");
        }
    }

    #[test]
    fn unaligned_length_uses_burn_faults_instead_of_rotation() {
        use crate::policy::{BinHopping, MappingPolicy};
        let a = rr(&[4, 9, 2, 7, 0, 5], 1); // length 6, 4 colors
        let order = touch_order(&a, cs(), Color(0)).unwrap();
        // Order is unrotated; burn dummy faults to align the cursor first.
        assert_eq!(order[0], Vpn(4));
        let burns = burn_count(&a, cs(), Color(0));
        assert_eq!(burns, 1);
        let mut bh = BinHopping::new(cs());
        for _ in 0..burns {
            bh.preferred_color(Vpn(u64::MAX)).color.unwrap(); // dummy page
        }
        let mut got = std::collections::BTreeMap::new();
        for vpn in order {
            got.insert(vpn, bh.preferred_color(vpn).color.unwrap());
        }
        for (vpn, want) in a {
            assert_eq!(got[&vpn], want, "page {vpn} got the wrong color");
        }
    }

    #[test]
    fn burn_count_measures_cursor_misalignment() {
        let a = rr(&[1, 2], 3);
        assert_eq!(burn_count(&a, cs(), Color(0)), 3);
        assert_eq!(burn_count(&a, cs(), Color(3)), 0);
        assert_eq!(burn_count(&[], cs(), Color(2)), 0);
    }

    #[test]
    fn empty_assignment_is_trivially_fine() {
        assert_eq!(realizable(&[], cs()), Ok(()));
        assert_eq!(touch_order(&[], cs(), Color(1)).unwrap(), Vec::<Vpn>::new());
    }
}
