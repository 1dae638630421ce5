//! The agreement graph: principals, capacities, and direct `[lb, ub]`
//! agreements between them.

use crate::{AccessLevels, AgreementError, FlowMatrices, Fraction};
use serde::{Deserialize, Serialize};

/// Identifier of a principal within one [`AgreementGraph`].
///
/// Ids are dense indices assigned by [`AgreementGraph::add_principal`] and
/// are used directly as row indices and entry keys in the flow and
/// access-level tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PrincipalId(pub usize);

impl PrincipalId {
    /// Returns the dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A principal: an organization that owns resources, uses others' resources
/// via agreements, or both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Principal {
    /// Human-readable name (e.g. `"A"`, `"asp-east"`).
    pub name: String,
    /// Aggregate physical capacity `V_i`, scaled in average-request units per
    /// second. Zero for pure consumers.
    pub capacity: f64,
}

/// A direct agreement: principal `issuer` grants `holder` access to between
/// `lb` and `ub` of its currency value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Agreement {
    /// Resource owner (ticket issuer).
    pub issuer: PrincipalId,
    /// Resource user (ticket holder).
    pub holder: PrincipalId,
    /// Guaranteed fraction during overload.
    pub lb: Fraction,
    /// Best-effort upper bound.
    pub ub: Fraction,
}

/// The agreement graph for one sharing community or service-provider
/// deployment.
///
/// Nodes are principals; a directed edge `i → j` labelled `[lb, ub]` means
/// `j` may use between `lb` and `ub` of `i`'s currency. The graph may contain
/// cycles (mutual peer-to-peer agreements); the flow computation only follows
/// *simple* (cycle-free) transitive paths, matching the summation constraints
/// of the paper's Formulae 1–2.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AgreementGraph {
    principals: Vec<Principal>,
    agreements: Vec<Agreement>,
}

impl AgreementGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a principal with physical capacity `capacity` (units/second),
    /// returning its id.
    pub fn add_principal(&mut self, name: impl Into<String>, capacity: f64) -> PrincipalId {
        let id = PrincipalId(self.principals.len());
        self.principals.push(Principal { name: name.into(), capacity });
        id
    }

    /// Adds a direct agreement `[lb, ub]` from `issuer` to `holder`.
    ///
    /// Fails if the bounds are invalid, the pair already has an agreement,
    /// either id is unknown, `issuer == holder`, or the issuer's total
    /// mandatory commitments would exceed 1.0.
    pub fn add_agreement(
        &mut self,
        issuer: PrincipalId,
        holder: PrincipalId,
        lb: f64,
        ub: f64,
    ) -> Result<(), AgreementError> {
        let (lbf, ubf) = match (Fraction::new(lb), Fraction::new(ub)) {
            (Some(l), Some(u)) if l <= u => (l, u),
            _ => return Err(AgreementError::InvalidBounds { lb, ub }),
        };
        for id in [issuer, holder] {
            if id.0 >= self.principals.len() {
                return Err(AgreementError::UnknownPrincipal(id.0));
            }
        }
        if issuer == holder {
            return Err(AgreementError::SelfAgreement(issuer.0));
        }
        if self
            .agreements
            .iter()
            .any(|a| a.issuer == issuer && a.holder == holder)
        {
            return Err(AgreementError::DuplicateAgreement { issuer: issuer.0, holder: holder.0 });
        }
        let total_lb: f64 = self
            .agreements
            .iter()
            .filter(|a| a.issuer == issuer)
            .map(|a| a.lb.get())
            .sum::<f64>()
            + lbf.get();
        if total_lb > 1.0 + 1e-9 {
            return Err(AgreementError::OverCommitted { issuer: issuer.0, total_lb });
        }
        self.agreements.push(Agreement { issuer, holder, lb: lbf, ub: ubf });
        Ok(())
    }

    /// Renegotiates the `[lb, ub]` bounds of an existing agreement (the
    /// dynamic-reinterpretation hook, §2.2: the change re-flows through
    /// the whole graph on the next [`Self::access_levels`] call).
    ///
    /// Validated like [`Self::add_agreement`]: the bounds must be a sane
    /// fraction pair and the issuer must stay solvent across its *other*
    /// agreements plus the new `lb`. A missing issuer→holder edge is
    /// reported as [`AgreementError::UnknownAgreement`].
    pub fn set_agreement(
        &mut self,
        issuer: PrincipalId,
        holder: PrincipalId,
        lb: f64,
        ub: f64,
    ) -> Result<(), AgreementError> {
        let (lbf, ubf) = match (Fraction::new(lb), Fraction::new(ub)) {
            (Some(l), Some(u)) if l <= u => (l, u),
            _ => return Err(AgreementError::InvalidBounds { lb, ub }),
        };
        let Some(idx) = self
            .agreements
            .iter()
            .position(|a| a.issuer == issuer && a.holder == holder)
        else {
            return Err(AgreementError::UnknownAgreement { issuer: issuer.0, holder: holder.0 });
        };
        let total_lb: f64 = self
            .agreements
            .iter()
            .enumerate()
            .filter(|(i, a)| *i != idx && a.issuer == issuer)
            .map(|(_, a)| a.lb.get())
            .sum::<f64>()
            + lbf.get();
        if total_lb > 1.0 + 1e-9 {
            return Err(AgreementError::OverCommitted { issuer: issuer.0, total_lb });
        }
        self.agreements[idx].lb = lbf;
        self.agreements[idx].ub = ubf;
        Ok(())
    }

    /// Number of principals.
    #[inline]
    pub fn len(&self) -> usize {
        self.principals.len()
    }

    /// True if the graph has no principals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.principals.is_empty()
    }

    /// The principal record for `id`.
    pub fn principal(&self, id: PrincipalId) -> &Principal {
        &self.principals[id.0]
    }

    /// All principals in id order.
    pub fn principals(&self) -> &[Principal] {
        &self.principals
    }

    /// All direct agreements.
    pub fn agreements(&self) -> &[Agreement] {
        &self.agreements
    }

    /// Updates a principal's physical capacity (agreements are interpreted
    /// dynamically: a capacity change re-flows through the whole graph on the
    /// next [`Self::access_levels`] call).
    pub fn set_capacity(&mut self, id: PrincipalId, capacity: f64) -> Result<(), AgreementError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(AgreementError::InvalidCapacity(capacity));
        }
        if id.0 >= self.principals.len() {
            return Err(AgreementError::UnknownPrincipal(id.0));
        }
        self.principals[id.0].capacity = capacity;
        Ok(())
    }

    /// The capacity vector `V` in id order.
    pub fn capacities(&self) -> Vec<f64> {
        self.principals.iter().map(|p| p.capacity).collect()
    }

    /// Total mandatory fraction `Σ_k lb_ik` issued by each principal `i`
    /// ("leak out" factor of Formula 1), summed in agreement order, in one
    /// pass over the agreements.
    pub fn mandatory_out_fractions(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.principals.len()];
        for a in &self.agreements {
            out[a.issuer.0] += a.lb.get();
        }
        out
    }

    /// Computes the full transitive-closure flow coefficients (all simple
    /// paths).
    pub fn flows(&self) -> FlowMatrices {
        FlowMatrices::compute(self)
    }

    /// Computes per-principal and per-pair mandatory/optional access levels
    /// (the `MC_i`, `OC_i`, `MI_ki`, `OI_ki` inputs of the scheduling LPs).
    pub fn access_levels(&self) -> AccessLevels {
        AccessLevels::from_flows(self, &self.flows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3() -> (AgreementGraph, PrincipalId, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1000.0);
        let b = g.add_principal("B", 1500.0);
        let c = g.add_principal("C", 0.0);
        g.add_agreement(a, b, 0.4, 0.6).unwrap();
        g.add_agreement(b, c, 0.6, 1.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn add_principal_assigns_dense_ids() {
        let (g, a, b, c) = figure3();
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(g.len(), 3);
        assert_eq!(g.principal(b).name, "B");
        assert_eq!(g.principal(b).capacity, 1500.0);
    }

    #[test]
    fn rejects_invalid_bounds() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1.0);
        let b = g.add_principal("B", 1.0);
        assert!(matches!(
            g.add_agreement(a, b, 0.6, 0.4),
            Err(AgreementError::InvalidBounds { .. })
        ));
        assert!(matches!(
            g.add_agreement(a, b, -0.1, 0.5),
            Err(AgreementError::InvalidBounds { .. })
        ));
        assert!(matches!(
            g.add_agreement(a, b, 0.5, 1.5),
            Err(AgreementError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn rejects_self_agreement_and_unknown() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1.0);
        assert!(matches!(
            g.add_agreement(a, a, 0.1, 0.2),
            Err(AgreementError::SelfAgreement(0))
        ));
        assert!(matches!(
            g.add_agreement(a, PrincipalId(9), 0.1, 0.2),
            Err(AgreementError::UnknownPrincipal(9))
        ));
    }

    #[test]
    fn rejects_duplicate_agreements() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1.0);
        let b = g.add_principal("B", 1.0);
        g.add_agreement(a, b, 0.1, 0.2).unwrap();
        assert!(matches!(
            g.add_agreement(a, b, 0.3, 0.4),
            Err(AgreementError::DuplicateAgreement { .. })
        ));
        // Reverse direction is a distinct agreement and is fine.
        g.add_agreement(b, a, 0.3, 0.4).unwrap();
    }

    #[test]
    fn rejects_mandatory_overcommit() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1.0);
        let b = g.add_principal("B", 1.0);
        let c = g.add_principal("C", 1.0);
        g.add_agreement(a, b, 0.7, 0.8).unwrap();
        assert!(matches!(
            g.add_agreement(a, c, 0.4, 0.5),
            Err(AgreementError::OverCommitted { issuer: 0, .. })
        ));
        // Optional overbooking is allowed: ub sums may exceed 1.
        g.add_agreement(a, c, 0.3, 1.0).unwrap();
    }

    #[test]
    fn mandatory_out_fraction_sums_lbs() {
        let (g, a, b, c) = figure3();
        let out = g.mandatory_out_fractions();
        assert!((out[a.0] - 0.4).abs() < 1e-12);
        assert!((out[b.0] - 0.6).abs() < 1e-12);
        assert_eq!(out[c.0], 0.0);
    }

    #[test]
    fn set_capacity_validates() {
        let (mut g, a, ..) = figure3();
        g.set_capacity(a, 2000.0).unwrap();
        assert_eq!(g.principal(a).capacity, 2000.0);
        assert!(matches!(
            g.set_capacity(a, -1.0),
            Err(AgreementError::InvalidCapacity(_))
        ));
        assert!(matches!(
            g.set_capacity(PrincipalId(42), 1.0),
            Err(AgreementError::UnknownPrincipal(42))
        ));
    }
}
