//! The random-kernel generator.

use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::kernel::{AccessDesc, IndexExpr, KernelBuilder, KernelDesc, Pred, Stmt, Trip};
use gmap_trace::record::{AccessKind, Pc};
use gmap_trace::rng::Rng;

/// The kernel drawn from `seed`: partial warps, divergent masks under all
/// five predicate kinds, ragged and nested loops, barriers, arrays
/// smaller than a warp's span (and beyond `i64` elements), hashed
/// indices, and affine coefficients from small to near `i64` overflow.
/// Some draws issue no access at all (every access under a zero-trip
/// loop or an empty branch).
pub fn kernel(seed: u64) -> KernelDesc {
    let mut rng = Rng::seed_from(seed);
    let grid = 1 + rng.gen_range(4) as u32;
    let tpb = 1 + rng.gen_range(160) as u32;
    let mut b = KernelBuilder::new("diff", grid, tpb);
    let arrays = 1 + rng.gen_range(3) as usize;
    for a in 0..arrays {
        let elems = [1, 5, 31, 32, 33, 100, 4096, 1 << 20][rng.gen_range(8) as usize];
        let elem_size = [1, 4, 8][rng.gen_range(3) as usize];
        b = b.array_with(&format!("a{a}"), elems, elem_size);
    }
    // Past `i64::MAX` elements the executor's wrap divisor goes
    // negative: the last array sometimes goes there.
    let huge = match rng.gen_range(8) {
        0 => Some(((1u64 << 63) + rng.gen_range(1000), 1)),
        1 => Some((u64::MAX, 0)),
        _ => None,
    };
    if let Some((elems, elem_size)) = huge {
        b = b.array_with("huge", elems, elem_size);
    }
    let launch = LaunchConfig::new(grid, tpb);
    let mut gen = KernelGen {
        rng,
        max_tid: launch.total_threads() - 1,
        max_warp: u64::from(launch.total_warps(32) - 1),
        max_block: u64::from(grid - 1),
        arrays: arrays + usize::from(huge.is_some()),
        iter_max: Vec::new(),
        nesting: 0,
        next_pc: 0x10,
    };
    for stmt in gen.stmts() {
        b = b.stmt(stmt);
    }
    b.build().expect("generated kernels are valid")
}

/// The generator's state while it draws one kernel's body.
struct KernelGen {
    rng: Rng,
    /// Largest tid, warp and block of the launch.
    max_tid: u64,
    max_warp: u64,
    max_block: u64,
    arrays: usize,
    /// Largest iterator value of each enclosing loop, outermost first.
    iter_max: Vec<u64>,
    /// Enclosing loops and branches.
    nesting: usize,
    next_pc: u64,
}

impl KernelGen {
    fn stmts(&mut self) -> Vec<Stmt> {
        (0..1 + self.rng.gen_range(4))
            .map(|_| self.stmt())
            .collect()
    }

    fn stmt(&mut self) -> Stmt {
        let nested = self.nesting < 3;
        self.nesting += 1;
        let stmt = match self.rng.gen_range(10) {
            0..=4 => self.access(),
            5 | 6 if nested => {
                let trip = if self.rng.gen_bool(0.5) {
                    Trip::Const(self.rng.gen_range(5) as u32)
                } else {
                    Trip::Hashed {
                        seed: self.rng.next_u64(),
                        base: self.rng.gen_range(3) as u32,
                        spread: self.rng.gen_range(5) as u32,
                    }
                };
                self.iter_max.push(trip.max_count().saturating_sub(1));
                let body = self.stmts();
                self.iter_max.pop();
                Stmt::Loop { trip, body }
            }
            7 | 8 if nested => {
                let r = self.rng.gen_range(4) as u32;
                let pred = match self.rng.gen_range(5) {
                    0 => Pred::TidLt(self.rng.gen_range(200) as u32),
                    1 => Pred::TidMod { m: 1 + r, r },
                    2 => Pred::LaneLt(self.rng.gen_range(33) as u32),
                    3 => Pred::BlockMod { m: 1 + r, r },
                    _ => Pred::Hashed {
                        seed: self.rng.next_u64(),
                        percent: self.rng.gen_range(101) as u8,
                    },
                };
                let then_body = self.stmts();
                let else_body = self.stmts();
                Stmt::If {
                    pred,
                    then_body,
                    else_body,
                }
            }
            9 => Stmt::Sync,
            _ => self.access(),
        };
        self.nesting -= 1;
        stmt
    }

    fn access(&mut self) -> Stmt {
        let index = match self.rng.gen_range(8) {
            0 => IndexExpr::Hashed {
                seed: self.rng.next_u64(),
            },
            1 => IndexExpr::HashedPerThread {
                seed: self.rng.next_u64(),
            },
            _ => self.affine(),
        };
        self.next_pc += 8;
        Stmt::Access(AccessDesc {
            pc: Pc(self.next_pc),
            array: self.rng.gen_range(self.arrays as u64) as usize,
            kind: if self.rng.gen_bool(0.3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            index,
        })
    }

    fn coef(&mut self) -> i64 {
        let c = match self.rng.gen_range(5) {
            0 => 0,
            1 | 2 => self.rng.gen_range_i64(-64, 64),
            3 => self.rng.gen_range_i64(-100_000, 100_000),
            _ => i64::MAX >> self.rng.gen_range(48),
        };
        if self.rng.gen_bool(0.5) {
            -c
        } else {
            c
        }
    }

    /// An affine index whose every partial sum, as `IndexExpr::eval`
    /// computes it, stays inside `i64` — the reference would panic on an
    /// overflow in a test build — with coefficients halved until it does,
    /// so near-overflow values survive.
    fn affine(&mut self) -> IndexExpr {
        let mut base = match self.rng.gen_range(4) {
            0 => i64::MAX - self.rng.gen_range(1 << 20) as i64,
            1 => i64::MIN + self.rng.gen_range(1 << 20) as i64,
            _ => self.coef(),
        };
        let mut coefs = [self.coef(), self.coef(), self.coef(), self.coef()];
        let mut iter_coefs = Vec::new();
        for d in 0..self.iter_max.len() {
            if self.rng.gen_bool(0.6) {
                iter_coefs.push((d as u8, self.coef()));
            }
        }
        while !self.fits(base, &coefs, &iter_coefs) {
            base /= 2;
            coefs.iter_mut().for_each(|c| *c /= 2);
            iter_coefs.iter_mut().for_each(|(_, c)| *c /= 2);
        }
        let [tid_coef, lane_coef, warp_coef, block_coef] = coefs;
        IndexExpr::Affine {
            base,
            tid_coef,
            lane_coef,
            warp_coef,
            block_coef,
            iter_coefs,
        }
    }

    /// Interval bound of `IndexExpr::eval`'s products and partial sums.
    fn fits(&self, base: i64, coefs: &[i64; 4], iter_coefs: &[(u8, i64)]) -> bool {
        let inside = |v: i128| (i128::from(i64::MIN)..=i128::from(i64::MAX)).contains(&v);
        let maxes = [self.max_tid, 31, self.max_warp, self.max_block];
        let terms = coefs.iter().zip(maxes).chain(
            iter_coefs
                .iter()
                .map(|(d, c)| (c, self.iter_max[*d as usize])),
        );
        let (mut lo, mut hi) = (i128::from(base), i128::from(base));
        for (&c, x) in terms {
            let p = i128::from(c) * i128::from(x);
            lo += p.min(0);
            hi += p.max(0);
            if !inside(p) || !inside(lo) || !inside(hi) {
                return false;
            }
        }
        true
    }
}
