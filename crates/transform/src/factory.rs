//! Copy-on-write variant materialization for DSE sweeps.
//!
//! Lowering ([`crate::lower`]) builds a fresh tree module per variant —
//! Manage-IR arrays, the lane function, the `par` dispatcher — yet
//! variants in a sweep differ structurally only along three axes: the
//! lane count, the inner map kind, and whether Form C swaps the global
//! arrays for local ones. Everything else (`A` vs `B` vs `Tiled`, the
//! vectorization degree, the module name) is a metadata patch.
//!
//! A [`VariantFactory`] therefore lowers **one base module per
//! structural class** `(lanes, inner, is_form_c)`, flattens it into a
//! shared [`ArenaModule`], and hands out each variant as a
//! [`VariantDesign`] — an owned name plus the three patched cells over
//! the `Arc`-shared base. The estimator's `estimate_design`/
//! `bound_design` passes cost the patch without materializing a tree;
//! [`PatchedModule::materialize`] reproduces the lowered tree exactly
//! (same fingerprint) for the few memo-miss paths that still need one.
//!
//! The factory is `Sync`: DSE workers request designs concurrently and
//! the first worker to touch a structural class lowers it for everyone.
//! The factory-wide lock only finds or inserts a class's cell; the
//! lowering and arena build run under that cell's own lock, so only
//! requests for the class being built wait on it.

use crate::expr::KernelDef;
use crate::lower::{lower, Geometry};
use crate::typetrans::{InnerKind, Variant};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tytra_ir::{ArenaModule, IrError, MemForm, PatchedModule};

/// One design variant as a copy-on-write delta over a shared arena base:
/// the owned module name plus the patched form/DV cells.
#[derive(Debug, Clone)]
pub struct VariantDesign {
    base: Arc<ArenaModule>,
    name: String,
    form: MemForm,
    vect: u32,
}

impl VariantDesign {
    /// The shared arena base (one per structural class).
    pub fn arena(&self) -> &ArenaModule {
        &self.base
    }

    /// The variant's module name (`{kernel}_{tag}`, as `lower` names it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The patched memory-execution form.
    pub fn form(&self) -> MemForm {
        self.form
    }

    /// The patched degree of vectorization.
    pub fn vect(&self) -> u32 {
        self.vect
    }

    /// The patch, borrowed — what the estimator's design passes consume.
    pub fn patched(&self) -> PatchedModule<'_> {
        self.base.patched(&self.name, self.form, self.vect)
    }
}

/// Lowers each *structural class* of a kernel's design space once and
/// serves every variant as a [`VariantDesign`] over the shared base. See
/// the module docs.
pub struct VariantFactory {
    kernel: KernelDef,
    geom: Geometry,
    bases: Mutex<HashMap<ClassKey, Arc<BaseCell>>>,
    built: AtomicUsize,
}

/// A structural class: `(lanes, inner map kind, is Form C)`.
type ClassKey = (u64, InnerKind, bool);

/// One class's base, built by the first requester that lowers it
/// successfully (a failed lowering leaves the cell empty, so the next
/// request for the class retries).
type BaseCell = Mutex<Option<Arc<ArenaModule>>>;

impl VariantFactory {
    /// A factory for one kernel + workload geometry.
    pub fn new(kernel: KernelDef, geom: Geometry) -> VariantFactory {
        VariantFactory {
            kernel,
            geom,
            bases: Mutex::new(HashMap::new()),
            built: AtomicUsize::new(0),
        }
    }

    /// The kernel definition the factory lowers.
    pub fn kernel(&self) -> &KernelDef {
        &self.kernel
    }

    /// The workload geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Number of structural classes lowered so far.
    pub fn bases_built(&self) -> usize {
        self.built.load(Ordering::Acquire)
    }

    /// The design for `variant`: lowers the variant's structural class on
    /// first sight, then patches the shared base. Errors exactly as
    /// [`lower`] does on an illegal reshape.
    pub fn design(&self, variant: &Variant) -> Result<VariantDesign, IrError> {
        if !variant.is_legal(self.geom.size()) {
            // Same error text as `lower` for the same illegal variant.
            return Err(IrError::Validate(format!(
                "variant {} is not an order-preserving reshape of {} work-items",
                variant.tag(),
                self.geom.size()
            )));
        }
        let key = (variant.lanes, variant.inner, matches!(variant.form, MemForm::C));
        let cell = Arc::clone(self.bases.lock().expect("factory lock").entry(key).or_default());
        let base = {
            let mut slot = cell.lock().expect("factory class lock");
            match &*slot {
                Some(b) => Arc::clone(b),
                None => {
                    let a = Arc::new(ArenaModule::build(lower(&self.kernel, &self.geom, variant)?));
                    *slot = Some(Arc::clone(&a));
                    self.built.fetch_add(1, Ordering::Release);
                    a
                }
            }
        };
        let mut name = String::with_capacity(self.kernel.name.len() + 1 + 24);
        name.push_str(&self.kernel.name);
        name.push('_');
        variant.write_tag(&mut name);
        Ok(VariantDesign { base, name, form: variant.form, vect: variant.vect })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::typetrans::enumerate_variants;
    use std::collections::HashSet;
    use tytra_ir::{fingerprint_module, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn stencil_kernel() -> KernelDef {
        let e = Expr::mul(Expr::add(Expr::off("p", -1), Expr::off("p", 1)), Expr::ConstI(3));
        KernelDef {
            name: "st".into(),
            elem_ty: T,
            inputs: vec!["p".into()],
            outputs: vec![("q".into(), e)],
            reductions: vec![],
        }
    }

    #[test]
    fn designs_fingerprint_like_direct_lowering() {
        // The decisive equivalence: for every variant in a realistic
        // sweep, the factory's patched design has the same module
        // fingerprint as lowering that variant from scratch — and the
        // materialized patch *is* the lowered module, field for field.
        let geom = Geometry::flat(1 << 10, 10);
        let factory = VariantFactory::new(stencil_kernel(), geom.clone());
        let variants = enumerate_variants(
            geom.size(),
            &[1, 2, 4],
            &[1, 2],
            &[MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 4 }],
        );
        assert!(!variants.is_empty());
        for v in &variants {
            let direct = lower(&stencil_kernel(), &geom, v).unwrap();
            let design = factory.design(v).unwrap();
            assert_eq!(design.name(), direct.name, "{}", v.tag());
            assert_eq!(design.patched().fingerprint(), fingerprint_module(&direct), "{}", v.tag());
            assert_eq!(design.patched().materialize(), direct, "{}", v.tag());
        }
    }

    #[test]
    fn bases_are_shared_per_structural_class() {
        let geom = Geometry::flat(1 << 10, 10);
        let factory = VariantFactory::new(stencil_kernel(), geom);
        let b = Variant::baseline();
        let d1 = factory.design(&b).unwrap();
        // A/B/Tiled at any DV share the baseline's structure…
        let d2 =
            factory.design(&Variant { vect: 4, form: MemForm::Tiled { tiles: 2 }, ..b }).unwrap();
        assert!(std::ptr::eq(d1.arena(), d2.arena()));
        assert_eq!(factory.bases_built(), 1);
        // …Form C and other lane counts do not.
        factory.design(&Variant { form: MemForm::C, ..b }).unwrap();
        factory.design(&Variant { lanes: 4, ..b }).unwrap();
        assert_eq!(factory.bases_built(), 3);
    }

    #[test]
    fn concurrent_designs_build_each_class_exactly_once() {
        // Threads race over the whole space, each starting at a different
        // offset, so different classes are built concurrently while other
        // threads wait on (or hit) the same class.
        const THREADS: usize = 4;
        let geom = Geometry::flat(1 << 10, 10);
        let factory = VariantFactory::new(stencil_kernel(), geom.clone());
        let variants = enumerate_variants(
            geom.size(),
            &[1, 2, 4, 8, 16],
            &[1, 2, 4],
            &[MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 4 }],
        );
        let classes: HashSet<_> =
            variants.iter().map(|v| (v.lanes, v.inner, v.form == MemForm::C)).collect();
        let start = std::sync::Barrier::new(THREADS);
        let designs: Vec<Vec<(Variant, VariantDesign)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (factory, variants, start) = (&factory, &variants, &start);
                    s.spawn(move || {
                        start.wait();
                        let n = variants.len();
                        (0..n)
                            .map(|i| variants[(i + t * n / THREADS) % n])
                            .map(|v| (v, factory.design(&v).unwrap()))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(factory.bases_built(), classes.len());
        // One shared base per class, whichever thread built it, and every
        // design still equals a direct lowering.
        let mut base_of = HashMap::new();
        for (v, d) in designs.iter().flatten() {
            let key = (v.lanes, v.inner, v.form == MemForm::C);
            let base = *base_of.entry(key).or_insert(d.arena() as *const ArenaModule);
            assert!(std::ptr::eq(base, d.arena()), "{}", v.tag());
        }
        for (v, d) in &designs[0] {
            let direct = lower(&stencil_kernel(), &geom, v).unwrap();
            assert_eq!(d.patched().fingerprint(), fingerprint_module(&direct), "{}", v.tag());
        }
    }

    #[test]
    fn illegal_variants_error_like_lower() {
        let geom = Geometry::flat(1000, 1);
        let factory = VariantFactory::new(stencil_kernel(), geom.clone());
        let v = Variant { lanes: 3, ..Variant::baseline() };
        let from_factory = factory.design(&v).unwrap_err();
        let from_lower = lower(&stencil_kernel(), &geom, &v).unwrap_err();
        assert_eq!(format!("{from_factory}"), format!("{from_lower}"));
        assert_eq!(factory.bases_built(), 0, "illegal variants lower nothing");
    }
}
