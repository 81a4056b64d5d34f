//! Stream dependence / buffer-feasibility (deadlock) analysis.
//!
//! The Manage-IR wires memory objects to kernel functions through
//! stream objects and port declarations. A memory object that a
//! function both reads from and (transitively) writes back to closes a
//! feedback loop through the datapath: the pipeline can only make
//! progress if the element being written is never one the reader still
//! needs, which on this IR (one-pass streaming over the NDRange, offset
//! windows realised as bounded smart buffers) cannot be guaranteed by
//! construction — the write stream races the read stream over the same
//! buffer. The paper's memory-execution forms sidestep this by
//! double-buffering (`pnew` is a *different* memory object than `p`),
//! so a self-feeding object is almost always a transcription error, and
//! at best a design that deadlocks once the offset window drains.
//!
//! The analysis is a reachability problem in the powerset lattice: each
//! node (memory object or reachable function) carries the set of memory
//! objects whose data can flow into it. Memory objects seed with
//! themselves; edges follow `mem → istream-port → function` and
//! `function → ostream-port → mem` bindings (ports bind to function
//! parameters by their unqualified name) plus intra-function
//! input-to-output flow (conservative: any input may influence any
//! output). A memory object appearing in its own writer's set closes
//! the loop; each such loop is reported as a [`CycleFinding`] (TL1008).

use std::collections::{BTreeMap, BTreeSet};

use tytra_ir::{IrModule, ManageIndex, PortDir, SrcLoc, StreamDir};

use crate::solver::{reachable, solve, SolverStats};

/// A feedback loop: `mem` feeds function `func`, whose output stream
/// writes `mem` again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleFinding {
    /// The memory object on the loop.
    pub mem: String,
    /// The function whose output closes the loop.
    pub func: String,
    /// The input parameter through which `mem` enters `func`.
    pub in_param: String,
    /// The output parameter through which the write returns to `mem`.
    pub out_param: String,
    /// Offset window `(most negative, most positive)` that `func`
    /// opens on the looping input stream — the buffer whose drain is
    /// the deadlock horizon (`(0, 0)` when no offsets are declared).
    pub window: (i64, i64),
    /// Source location of the memory object declaration.
    pub span: SrcLoc,
}

/// Result of the stream-dependence analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeadlockAnalysis {
    /// Feedback loops found (TL1008), ordered by memory declaration.
    pub findings: Vec<CycleFinding>,
    /// Which memory objects can flow into each reachable function,
    /// keyed by function name.
    pub inflows: BTreeMap<String, BTreeSet<String>>,
    /// Solver counters.
    pub stats: SolverStats,
}

/// Run the stream-dependence / deadlock check.
pub fn analyze_deadlock(m: &IrModule) -> DeadlockAnalysis {
    let (live, mut stats) = reachable(m);

    // Node space: memory objects first, then reachable functions.
    let live_fns: Vec<&str> =
        m.functions.iter().filter(|f| live.contains(&f.name)).map(|f| f.name.as_str()).collect();
    let n_mems = m.mems.len();
    let n = n_mems + live_fns.len();
    let mem_index: BTreeMap<&str, usize> =
        m.mems.iter().enumerate().map(|(i, mm)| (mm.name.as_str(), i)).collect();
    let fn_index: BTreeMap<&str, usize> =
        live_fns.iter().enumerate().map(|(i, f)| (*f, n_mems + i)).collect();

    // Port bindings: an istream port with unqualified name `p` feeds
    // every reachable function with an input parameter `p`; an ostream
    // port `q` is driven by every reachable function with an output
    // parameter `q`. (Lane-replicated designs bind ports to parameters
    // implicitly by name; explicit-argument designs forward the same
    // names, so name binding covers both call conventions.)
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let edge =
        |from: usize, to: usize, preds: &mut Vec<Vec<usize>>, succs: &mut Vec<Vec<usize>>| {
            if !preds[to].contains(&from) {
                preds[to].push(from);
                succs[from].push(to);
            }
        };
    let idx = m.manage_index();
    for p in &m.ports {
        let Some(stream) = idx.stream(&p.stream) else { continue };
        let Some(&mem) = mem_index.get(stream.mem.as_str()) else { continue };
        let short = p.arg_name();
        for f in m.functions.iter().filter(|f| live.contains(&f.name)) {
            let Some(param) = f.param(short) else { continue };
            let Some(&fnode) = fn_index.get(f.name.as_str()) else { continue };
            match (p.dir, param.dir) {
                (StreamDir::Read, PortDir::In) => edge(mem, fnode, &mut preds, &mut succs),
                (StreamDir::Write, PortDir::Out) => edge(fnode, mem, &mut preds, &mut succs),
                _ => {}
            }
        }
    }

    // Fixpoint: each node accumulates the memory objects that can reach
    // it. Memory nodes seed with themselves.
    let (vals, dl_stats) = solve(&succs, |node, vals: &[BTreeSet<String>]| {
        let mut out = BTreeSet::new();
        if node < n_mems {
            out.insert(m.mems[node].name.clone());
        }
        for &p in &preds[node] {
            out.extend(vals[p].iter().cloned());
        }
        out
    });
    stats.absorb(&dl_stats);

    let mut out = DeadlockAnalysis::default();
    for f in &live_fns {
        out.inflows.insert((*f).to_string(), vals[fn_index[*f]].clone());
    }

    // A loop closes when a function that writes mem M also has M in its
    // inflow set. Report one finding per (mem, function) pair, in
    // memory-declaration order.
    for mem in &m.mems {
        for f in m.functions.iter().filter(|f| live.contains(&f.name)) {
            let Some(&fnode) = fn_index.get(f.name.as_str()) else { continue };
            if !vals[fnode].contains(&mem.name) {
                continue;
            }
            // Does f write mem (via an ostream port bound to one of its
            // output params)?
            let Some(out_param) = write_param(m, &idx, f.name.as_str(), &mem.name) else {
                continue;
            };
            // Through which input does mem enter f? Prefer the direct
            // port binding; a loop through intermediaries reports the
            // first input parameter on the path's last hop.
            let in_param = read_param(m, &idx, f.name.as_str(), &mem.name)
                .or_else(|| f.params.iter().find(|p| p.dir == PortDir::In).map(|p| p.name.clone()))
                .unwrap_or_default();
            let window = f.offset_sources().iter().find(|s| **s == in_param).map_or((0, 0), |s| {
                let mut neg = 0i64;
                let mut pos = 0i64;
                for o in f.offsets().filter(|o| o.src == **s) {
                    neg = neg.min(o.offset);
                    pos = pos.max(o.offset);
                }
                (neg, pos)
            });
            out.findings.push(CycleFinding {
                mem: mem.name.clone(),
                func: f.name.clone(),
                in_param,
                out_param,
                window,
                span: mem.span,
            });
        }
    }
    out.stats = stats;
    out
}

/// The output parameter of `func` that an ostream port routes to `mem`,
/// if any.
fn write_param(m: &IrModule, idx: &ManageIndex<'_>, func: &str, mem: &str) -> Option<String> {
    let f = m.function(func)?;
    for p in &m.ports {
        if p.dir != StreamDir::Write {
            continue;
        }
        let Some(s) = idx.stream(&p.stream) else { continue };
        if s.mem != mem {
            continue;
        }
        if let Some(param) = f.param(p.arg_name()) {
            if param.dir == PortDir::Out {
                return Some(param.name.clone());
            }
        }
    }
    None
}

/// The input parameter of `func` that an istream port feeds from `mem`,
/// if any.
fn read_param(m: &IrModule, idx: &ManageIndex<'_>, func: &str, mem: &str) -> Option<String> {
    let f = m.function(func)?;
    for p in &m.ports {
        if p.dir != StreamDir::Read {
            continue;
        }
        let Some(s) = idx.stream(&p.stream) else { continue };
        if s.mem != mem {
            continue;
        }
        if let Some(param) = f.param(p.arg_name()) {
            if param.dir == PortDir::In {
                return Some(param.name.clone());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::parse;

    /// `mem_p` is read *and* written by `f0`: a feedback loop.
    const LOOPED: &str = r#"
!module = !"looped"
!ndrange = !{30, 30}
!nki = !10
!form = !"B"
%mem_p = memobj addrSpace(1) ui18, !size, !900
%strobj_p = streamobj %mem_p, !read, !"CONT"
%strobj_pw = streamobj %mem_p, !write, !"CONT"
@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
@main.q = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"strobj_pw"
define void @f0(ui18 %p, out ui18 %q) pipe {
  ui18 %pp = ui18 %p, !offset, !+30
  ui18 %pn = ui18 %p, !offset, !-30
  ui18 %t = add ui18 %pp, %pn
  ui18 %q__out = or ui18 %t, 0
}
define void @main() {
  call @f0(%p, %q) pipe
}
"#;

    /// Double-buffered variant: read `mem_p`, write `mem_q`.
    const BUFFERED: &str = r#"
!module = !"buffered"
!ndrange = !{30, 30}
!nki = !10
!form = !"B"
%mem_p = memobj addrSpace(1) ui18, !size, !900
%mem_q = memobj addrSpace(1) ui18, !size, !900
%strobj_p = streamobj %mem_p, !read, !"CONT"
%strobj_q = streamobj %mem_q, !write, !"CONT"
@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
@main.q = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"strobj_q"
define void @f0(ui18 %p, out ui18 %q) pipe {
  ui18 %pp = ui18 %p, !offset, !+30
  ui18 %t = add ui18 %pp, %p
  ui18 %q__out = or ui18 %t, 0
}
define void @main() {
  call @f0(%p, %q) pipe
}
"#;

    #[test]
    fn self_feeding_memory_is_a_cycle() {
        let m = parse(LOOPED).expect("parses");
        let r = analyze_deadlock(&m);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let c = &r.findings[0];
        assert_eq!(c.mem, "mem_p");
        assert_eq!(c.func, "f0");
        assert_eq!(c.in_param, "p");
        assert_eq!(c.out_param, "q");
        assert_eq!(c.window, (-30, 30));
        assert_eq!(r.inflows["f0"], BTreeSet::from(["mem_p".to_string()]));
    }

    #[test]
    fn double_buffering_is_clean() {
        let m = parse(BUFFERED).expect("parses");
        let r = analyze_deadlock(&m);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.inflows["f0"], BTreeSet::from(["mem_p".to_string()]));
    }

    #[test]
    fn assets_shape_module_is_clean() {
        // Three separate memories as in the seeded SOR asset: reads from
        // p and rhs, writes pnew — no loop.
        let src = r#"
!module = !"sorish"
!ndrange = !{8}
!nki = !2
!form = !"B"
%mem_p = memobj addrSpace(1) ui18, !size, !8
%mem_rhs = memobj addrSpace(1) ui18, !size, !8
%mem_pnew = memobj addrSpace(1) ui18, !size, !8
%strobj_p = streamobj %mem_p, !read, !"CONT"
%strobj_rhs = streamobj %mem_rhs, !read, !"CONT"
%strobj_pnew = streamobj %mem_pnew, !write, !"CONT"
@main.p = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_p"
@main.rhs = addrSpace(12) ui18, !"istream", !"CONT", !0, !"strobj_rhs"
@main.pnew = addrSpace(12) ui18, !"ostream", !"CONT", !0, !"strobj_pnew"
define void @f0(ui18 %p, ui18 %rhs, out ui18 %pnew) pipe {
  ui18 %t = add ui18 %p, %rhs
  ui18 %pnew__out = or ui18 %t, 0
}
define void @main() {
  call @f0(%p, %rhs, %pnew) pipe
}
"#;
        let m = parse(src).expect("parses");
        let r = analyze_deadlock(&m);
        assert!(r.findings.is_empty());
        assert_eq!(r.inflows["f0"], BTreeSet::from(["mem_p".to_string(), "mem_rhs".to_string()]));
    }
}
