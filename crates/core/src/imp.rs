//! Implementation methods (IMPs).

use std::fmt;

use partita_interface::InterfaceKind;
use partita_ip::IpId;
use partita_mop::{AreaTenths, CallSiteId, Cycles};

/// Identifier of an IMP inside an [`crate::ImpDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImpId(pub u32);

impl ImpId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ImpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "imp{}", self.0)
    }
}

/// How an IMP exploits parallel execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParallelChoice {
    /// No parallel code (also the only option for interface types 0/2).
    None,
    /// The plain parallel code `PC_i` of the s-call (kernel code only).
    PlainPc,
    /// The plain parallel code extended with the **software
    /// implementations** of these s-calls (Problem 2). Selecting this IMP
    /// conflicts with every IMP of the listed s-calls (SC-PC conflict).
    SwScalls(Vec<CallSiteId>),
}

impl ParallelChoice {
    /// S-calls consumed as software parallel code (empty unless
    /// [`ParallelChoice::SwScalls`]).
    #[must_use]
    pub fn consumed_scalls(&self) -> &[CallSiteId] {
        match self {
            ParallelChoice::SwScalls(s) => s,
            _ => &[],
        }
    }
}

/// One implementation method `IMP_ij`: an (IP set, interface, parallel-code)
/// choice for one s-call, with its total gain and interface area.
///
/// `ips` is the paper's `s_ijk` row: composite IMPs produced by *IMP
/// flatten* may use several IPs at once.
#[derive(Debug, Clone, PartialEq)]
pub struct Imp {
    /// The IMP's identifier (assigned by the database).
    pub id: ImpId,
    /// The s-call this IMP implements.
    pub scall: CallSiteId,
    /// The IPs this IMP instantiates (`s_ijk = 1`).
    pub ips: Vec<IpId>,
    /// Interface type used (composite IMPs report the outermost one).
    pub interface: InterfaceKind,
    /// Total performance gain `g_ij` (already multiplied by the profiled
    /// frequency).
    pub gain: Cycles,
    /// Interface area `c_ij` (the IP areas `a_k` are charged once via the
    /// fixed-charge indicator, not here).
    pub interface_area: AreaTenths,
    /// Power drawn when this implementation is active, in milliwatts (the
    /// paper lists power among each IMP's attributes). Always zero, and no
    /// formulation row or check reads it. It stays only because workload
    /// digests and canonical cache keys hash the database's `Debug`
    /// rendering, which includes this field.
    pub power_mw: u64,
    /// Parallel-execution choice.
    pub parallel: ParallelChoice,
}

impl Imp {
    /// Creates an IMP (the id is assigned when added to a database).
    #[must_use]
    pub fn new(
        scall: CallSiteId,
        ips: Vec<IpId>,
        interface: InterfaceKind,
        gain: Cycles,
        interface_area: AreaTenths,
        parallel: ParallelChoice,
    ) -> Imp {
        Imp {
            id: ImpId(0),
            scall,
            ips,
            interface,
            gain,
            interface_area,
            power_mw: 0,
            parallel,
        }
    }

    /// `true` if this IMP uses IP `ip`.
    #[must_use]
    pub fn uses_ip(&self, ip: IpId) -> bool {
        self.ips.contains(&ip)
    }
}

impl fmt::Display for Imp {
    /// Paper-style rendering: `SC13: IP12,IF0,115037,3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.scall)?;
        for (i, ip) in self.ips.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{ip}")?;
        }
        write!(
            f,
            ",{},{},{}",
            self.interface,
            self.gain.get(),
            self.interface_area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_format() {
        let imp = Imp::new(
            CallSiteId(13),
            vec![IpId(12)],
            InterfaceKind::Type0,
            Cycles(115_037),
            AreaTenths::from_units(3),
            ParallelChoice::None,
        );
        assert_eq!(imp.to_string(), "sc13: IP12,IF0,115037,3");
    }

    #[test]
    fn composite_imps_list_all_ips() {
        let imp = Imp::new(
            CallSiteId(1),
            vec![IpId(2), IpId(5)],
            InterfaceKind::Type1,
            Cycles(10),
            AreaTenths::from_tenths(15),
            ParallelChoice::PlainPc,
        );
        assert!(imp.uses_ip(IpId(2)));
        assert!(imp.uses_ip(IpId(5)));
        assert!(!imp.uses_ip(IpId(3)));
        assert!(imp.to_string().contains("IP2+IP5"));
    }

    #[test]
    fn consumed_scalls() {
        assert!(ParallelChoice::None.consumed_scalls().is_empty());
        assert!(ParallelChoice::PlainPc.consumed_scalls().is_empty());
        let c = ParallelChoice::SwScalls(vec![CallSiteId(4)]);
        assert_eq!(c.consumed_scalls(), &[CallSiteId(4)]);
    }
}
