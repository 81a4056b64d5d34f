//! `ManageIndex` answers exactly what the linear Manage-IR lookups
//! answer, and validation through it reports exactly what the linear
//! port → stream → memory chain reports.
//!
//! Modules are generated with names drawn from small pools, so most
//! carry duplicate memory-object, stream and port names, streams that
//! name no memory object, and ports that name no stream. The reference
//! side of every comparison is the linear `IrModule::mem`/`stream` scan
//! (first declaration wins; an unresolved port is off-chip).

use proptest::prelude::*;
use tytra_ir::{
    validate, validate_into, AccessPattern, AddrSpace, DiagSink, Diagnostic, IrError, IrModule,
    MemObject, ModuleBuilder, ParKind, PortDecl, ScalarType, SrcLoc, StreamDir, StreamObject,
};

/// Tiny deterministic generator over one proptest seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const SPACES: [AddrSpace; 5] = [
    AddrSpace::Global,
    AddrSpace::Local,
    AddrSpace::Constant,
    AddrSpace::Private,
    AddrSpace::Other(12),
];
const TYPES: [ScalarType; 3] = [ScalarType::UInt(18), ScalarType::UInt(32), ScalarType::Float(32)];
const DIRS: [StreamDir; 2] = [StreamDir::Read, StreamDir::Write];
const PATTERNS: [AccessPattern; 3] = [
    AccessPattern::Contiguous,
    AccessPattern::Strided { stride: 4 },
    AccessPattern::Strided { stride: 96 },
];

/// A module with a valid Compute-IR part, so every diagnostic comes from
/// the Manage-IR checks.
fn compute_part() -> IrModule {
    let t = ScalarType::UInt(18);
    let mut b = ModuleBuilder::new("m");
    {
        let f = b.function("f0", ParKind::Pipe);
        f.input("p", t);
        f.output("q", t);
        let a = f.offset("p", t, 1);
        let p = f.arg("p");
        let s = f.instr(tytra_ir::Opcode::Add, t, vec![a, p]);
        f.write_out("q", s);
    }
    b.main_calls("f0");
    b.ndrange(&[64]);
    let mut m = b.finish_unchecked();
    m.mems.clear();
    m.streams.clear();
    m.ports.clear();
    m
}

/// Manage-IR with names from small pools: `mem_0..mem_5` declared,
/// `mem_0..mem_7` referenced (and likewise for streams), every
/// declaration at its own source line.
fn generated(seed: u64) -> IrModule {
    let mut g = Gen(seed | 1);
    let mut m = compute_part();
    let mut line = 1;
    let mut loc = || {
        line += 1;
        SrcLoc::at(line, 1)
    };
    for _ in 0..g.below(14) {
        m.mems.push(MemObject {
            name: format!("mem_{}", g.below(6)),
            space: g.pick(&SPACES),
            elem_ty: g.pick(&TYPES),
            len: 1 + g.below(1000),
            span: loc(),
        });
    }
    for _ in 0..g.below(14) {
        m.streams.push(StreamObject {
            name: format!("str_{}", g.below(6)),
            mem: format!("mem_{}", g.below(8)),
            dir: g.pick(&DIRS),
            pattern: g.pick(&PATTERNS),
            span: loc(),
        });
    }
    for _ in 0..g.below(18) {
        m.ports.push(PortDecl {
            name: format!("main.p{}", g.below(10)),
            space: AddrSpace::Other(12),
            ty: g.pick(&TYPES),
            dir: g.pick(&DIRS),
            pattern: g.pick(&PATTERNS),
            base_offset: 0,
            stream: format!("str_{}", g.below(8)),
            span: loc(),
        });
    }
    m
}

/// The linear port → stream → memory chain.
fn linear_port_mem<'m>(m: &'m IrModule, p: &PortDecl) -> Option<&'m MemObject> {
    m.stream(&p.stream).and_then(|s| m.mem(&s.mem))
}

fn same<T>(a: Option<&T>, b: Option<&T>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => std::ptr::eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// The Manage-IR diagnostics of a module whose Compute-IR part is valid,
/// computed with linear lookups: duplicate names (functions, memory
/// objects, streams, ports, in that order), then dangling streams, then
/// per port its stream, direction, type and pattern.
fn linear_diagnostics(m: &IrModule) -> (Vec<Diagnostic>, Option<IrError>) {
    let mut out = Vec::new();
    let invalid = |out: &mut Vec<Diagnostic>, code, loc: SrcLoc, msg: String| {
        out.push(Diagnostic::error(code, msg).with_loc(loc));
    };
    let dups: [(&str, Vec<(&str, SrcLoc)>); 3] = [
        ("memory object", m.mems.iter().map(|x| (x.name.as_str(), x.span)).collect()),
        ("stream object", m.streams.iter().map(|x| (x.name.as_str(), x.span)).collect()),
        ("port", m.ports.iter().map(|x| (x.name.as_str(), x.span)).collect()),
    ];
    for (what, names) in dups {
        for (i, (n, loc)) in names.iter().enumerate() {
            if names[..i].iter().any(|(seen, _)| seen == n) {
                invalid(&mut out, "TL0001", *loc, format!("duplicate {what} name `{n}`"));
            }
        }
    }
    let mut unknowns = Vec::new();
    let mut unknown = |out: &mut Vec<Diagnostic>, loc: SrcLoc, kind: &'static str, name: &str| {
        unknowns.push(IrError::Unknown { kind, name: name.to_string() });
        out.push(Diagnostic::error("TL0002", format!("unknown {kind} `{name}`")).with_loc(loc));
    };
    for s in &m.streams {
        if m.mem(&s.mem).is_none() {
            unknown(&mut out, s.span, "memory object", &s.mem);
        }
    }
    for p in &m.ports {
        let Some(s) = m.stream(&p.stream) else {
            unknown(&mut out, p.span, "stream object", &p.stream);
            continue;
        };
        if s.dir != p.dir {
            let msg = format!("port `{}` direction disagrees with stream `{}`", p.name, s.name);
            invalid(&mut out, "TL0003", p.span, msg);
        }
        let Some(mem) = m.mem(&s.mem) else { continue };
        if mem.elem_ty != p.ty {
            let msg = format!(
                "port `{}` type {} disagrees with memory `{}` element type {}",
                p.name, p.ty, mem.name, mem.elem_ty
            );
            invalid(&mut out, "TL0004", p.span, msg);
        }
        if s.pattern != p.pattern {
            let msg = format!(
                "port `{}` access pattern disagrees with stream `{}` (the port restates the stream's pattern)",
                p.name, s.name
            );
            invalid(&mut out, "TL0005", p.span, msg);
        }
    }
    // The fail-fast error is the first diagnostic's: recover which kind
    // it was from its code.
    let first_err = out.first().map(|d| {
        if d.code == "TL0002" {
            unknowns[0].clone()
        } else {
            IrError::Validate(d.message.clone())
        }
    });
    (out, first_err)
}

fn diagnostics_of(m: &IrModule) -> (Vec<Diagnostic>, Option<IrError>) {
    let mut sink = DiagSink::new();
    let first = validate_into(m, &mut sink);
    (sink.diagnostics().to_vec(), first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn index_lookups_equal_the_linear_scans(seed in any::<u64>()) {
        let m = generated(seed);
        let idx = m.manage_index();
        for i in 0..8 {
            let (mem, stream) = (format!("mem_{i}"), format!("str_{i}"));
            prop_assert!(same(idx.mem(&mem), m.mem(&mem)), "mem {mem}");
            prop_assert!(same(idx.stream(&stream), m.stream(&stream)), "stream {stream}");
        }
        prop_assert!(idx.mem("").is_none() && idx.stream("main.p0").is_none());
        for p in &m.ports {
            let linear = linear_port_mem(&m, p);
            prop_assert!(same(idx.port_mem(p), linear), "port {}", p.name);
            let offchip = linear.map(|mem| mem.space.is_offchip()).unwrap_or(true);
            prop_assert_eq!(idx.port_offchip(p), offchip, "port {}", p.name);
        }
    }

    #[test]
    fn validation_reports_what_the_linear_chain_reports(seed in any::<u64>()) {
        let m = generated(seed);
        let (got, first) = diagnostics_of(&m);
        let (want, want_first) = linear_diagnostics(&m);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&first, &want_first);
        prop_assert_eq!(validate(&m).err(), want_first);
    }
}

#[test]
fn first_declaration_wins_for_duplicate_names() {
    // Two memory objects and two streams share a name; the ports resolve
    // through the *first* of each, exactly as the linear lookups do.
    let mut m = compute_part();
    let mem = |space, elem_ty, line| MemObject {
        name: "mem_x".into(),
        space,
        elem_ty,
        len: 64,
        span: SrcLoc::at(line, 1),
    };
    m.mems = vec![
        mem(AddrSpace::Global, ScalarType::UInt(18), 1),
        mem(AddrSpace::Local, ScalarType::UInt(32), 2),
    ];
    let stream = |dir, pattern, line| StreamObject {
        name: "str_x".into(),
        mem: "mem_x".into(),
        dir,
        pattern,
        span: SrcLoc::at(line, 1),
    };
    m.streams = vec![
        stream(StreamDir::Read, AccessPattern::Contiguous, 3),
        stream(StreamDir::Write, AccessPattern::Strided { stride: 4 }, 4),
    ];
    let port = |name: &str, stream: &str, line| PortDecl {
        name: name.into(),
        space: AddrSpace::Other(12),
        ty: ScalarType::UInt(32),
        dir: StreamDir::Write,
        pattern: AccessPattern::Strided { stride: 4 },
        base_offset: 0,
        stream: stream.into(),
        span: SrcLoc::at(line, 1),
    };
    m.ports = vec![port("main.a", "str_x", 5), port("main.b", "str_missing", 6)];

    let idx = m.manage_index();
    assert!(std::ptr::eq(idx.mem("mem_x").unwrap(), &m.mems[0]));
    assert!(std::ptr::eq(idx.stream("str_x").unwrap(), &m.streams[0]));
    assert!(std::ptr::eq(idx.port_mem(&m.ports[0]).unwrap(), &m.mems[0]));
    assert!(idx.port_offchip(&m.ports[0]), "first `mem_x` is global");
    assert!(idx.port_mem(&m.ports[1]).is_none());
    assert!(idx.port_offchip(&m.ports[1]), "an unresolved port counts as off-chip");

    let (got, first) = diagnostics_of(&m);
    let rendered: Vec<(&str, &str, u32)> =
        got.iter().map(|d| (d.code, d.message.as_str(), d.span.unwrap().line)).collect();
    assert_eq!(
        rendered,
        [
            ("TL0001", "duplicate memory object name `mem_x`", 2),
            ("TL0001", "duplicate stream object name `str_x`", 4),
            ("TL0003", "port `main.a` direction disagrees with stream `str_x`", 5),
            ("TL0004", "port `main.a` type ui32 disagrees with memory `mem_x` element type ui18", 5),
            (
                "TL0005",
                "port `main.a` access pattern disagrees with stream `str_x` (the port restates the stream's pattern)",
                5
            ),
            ("TL0002", "unknown stream object `str_missing`", 6),
        ]
    );
    assert_eq!(first, Some(IrError::Validate("duplicate memory object name `mem_x`".into())));
}
