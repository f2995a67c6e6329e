//! Scalar ALU semantics shared by both interpreters (the decoded engine
//! in [`crate::exec`] and the tree-walking oracle in [`crate::reference`]).
//!
//! Operations are polymorphic over [`Value`]: integer inputs use wrapping
//! integer semantics, and if either input is a float the operation is
//! performed in `f64`. Comparisons always produce an integer 0/1.
//!
//! [`eval_bin`]/[`eval_un`] are the specification, one value pair at a
//! time. The execution engines' hot loops instead go through the kernel
//! table ([`AluOp::dispatch`]): the op is matched once per issue and its
//! monomorphic kernel is handed to a [`LaneLoop`], which applies it to
//! every lane (and, in the sweep cohort, every seed slot) of the issue.
//! Each kernel reproduces its `eval_*` arm bit for bit and refuses
//! (`None`) exactly where the arm faults; a unit test pins the two
//! together.

use simt_ir::{BinOp, UnOp, Value};

/// A loop over the lanes (or lane × slot cells) of one issue,
/// instantiated once per kernel by [`AluOp::dispatch`].
pub(crate) trait LaneLoop {
    /// What the loop reports back to its issue.
    type Out;

    /// Applies `kernel` to every cell of the issue. The kernel returns
    /// `None` where the op faults; `can_fault` is false for kernels that
    /// never do. Unary kernels ignore their second argument.
    fn run<K: Fn(Value, Value) -> Option<Value>>(self, kernel: K, can_fault: bool) -> Self::Out;
}

/// An ALU operation as the kernel table sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AluOp {
    /// A binary op over `(lhs, rhs)`.
    Bin(BinOp),
    /// A unary op over its one operand.
    Un(UnOp),
    /// A register move: copies its operand, never faults.
    Mov,
}

impl AluOp {
    /// Picks this op's kernel and runs `lp` with it: the only `match op`
    /// an issue pays.
    #[inline]
    pub(crate) fn dispatch<L: LaneLoop>(self, lp: L) -> L::Out {
        use Value::{F64, I64};
        // `I64 op I64` stays integer; any float operand promotes both.
        macro_rules! arith {
            ($int:expr, $flt:expr) => {
                lp.run(
                    |a, b| {
                        Some(match (a, b) {
                            (I64(x), I64(y)) => I64($int(x, y)),
                            _ => F64($flt(a.as_f64(), b.as_f64())),
                        })
                    },
                    false,
                )
            };
        }
        // Integer division: faults on a zero integer divisor.
        macro_rules! div {
            ($int:expr, $flt:expr) => {
                lp.run(
                    |a, b| match (a, b) {
                        (I64(_), I64(0)) => None,
                        (I64(x), I64(y)) => Some(I64($int(x, y))),
                        _ => Some(F64($flt(a.as_f64(), b.as_f64()))),
                    },
                    true,
                )
            };
        }
        // Bitwise: integers only, faults on any float operand.
        macro_rules! bits {
            ($int:expr) => {
                lp.run(
                    |a, b| match (a, b) {
                        (I64(x), I64(y)) => Some(I64($int(x, y))),
                        _ => None,
                    },
                    true,
                )
            };
        }
        macro_rules! cmp {
            ($int:expr, $flt:expr) => {
                lp.run(
                    |a, b| {
                        Some(Value::bool(match (a, b) {
                            (I64(x), I64(y)) => $int(&x, &y),
                            _ => $flt(&a.as_f64(), &b.as_f64()),
                        }))
                    },
                    false,
                )
            };
        }
        macro_rules! un {
            ($f:expr) => {
                lp.run(|a, _| Some($f(a)), false)
            };
        }
        match self {
            AluOp::Bin(op) => match op {
                BinOp::Add => arith!(i64::wrapping_add, |x: f64, y: f64| x + y),
                BinOp::Sub => arith!(i64::wrapping_sub, |x: f64, y: f64| x - y),
                BinOp::Mul => arith!(i64::wrapping_mul, |x: f64, y: f64| x * y),
                BinOp::Min => arith!(i64::min, f64::min),
                BinOp::Max => arith!(i64::max, f64::max),
                BinOp::Div => div!(i64::wrapping_div, |x: f64, y: f64| x / y),
                BinOp::Rem => div!(i64::wrapping_rem, |x: f64, y: f64| x % y),
                BinOp::And => bits!(|x: i64, y: i64| x & y),
                BinOp::Or => bits!(|x: i64, y: i64| x | y),
                BinOp::Xor => bits!(|x: i64, y: i64| x ^ y),
                BinOp::Shl => bits!(|x: i64, y: i64| ((x as u64) << (y as u64 & 63)) as i64),
                BinOp::Shr => bits!(|x: i64, y: i64| ((x as u64) >> (y as u64 & 63)) as i64),
                BinOp::Eq => cmp!(i64::eq, f64::eq),
                BinOp::Ne => cmp!(i64::ne, f64::ne),
                BinOp::Lt => cmp!(i64::lt, f64::lt),
                BinOp::Le => cmp!(i64::le, f64::le),
                BinOp::Gt => cmp!(i64::gt, f64::gt),
                BinOp::Ge => cmp!(i64::ge, f64::ge),
            },
            AluOp::Un(op) => match op {
                UnOp::Not => lp.run(
                    |a, _| match a {
                        I64(v) => Some(I64(!v)),
                        F64(_) => None,
                    },
                    true,
                ),
                UnOp::Neg => un!(|a| match a {
                    I64(v) => I64(i64::wrapping_neg(v)),
                    F64(v) => F64(-v),
                }),
                UnOp::Sqrt => un!(|a: Value| F64(a.as_f64().sqrt())),
                UnOp::Exp => un!(|a: Value| F64(a.as_f64().exp())),
                UnOp::Log => un!(|a: Value| F64(a.as_f64().ln())),
                UnOp::Abs => un!(|a| match a {
                    I64(v) => I64(i64::wrapping_abs(v)),
                    F64(v) => F64(v.abs()),
                }),
                UnOp::ItoF => un!(|a: Value| F64(a.as_f64())),
                UnOp::FtoI => un!(|a: Value| I64(a.as_i64())),
            },
            AluOp::Mov => un!(|a| a),
        }
    }

    /// The fault message for operands this op's kernel refused — the
    /// specification's own error text.
    pub(crate) fn fault(self, a: Value, b: Value) -> String {
        let r = match self {
            AluOp::Bin(op) => eval_bin(op, a, b),
            AluOp::Un(op) => eval_un(op, a),
            AluOp::Mov => Ok(a),
        };
        r.expect_err("a kernel refused operands its specification accepts")
    }
}

/// Evaluates a binary ALU operation.
#[inline]
pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    let float = !a.is_int() || !b.is_int();
    Ok(match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            if float {
                let (x, y) = (a.as_f64(), b.as_f64());
                Value::F64(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Rem => x % y,
                    Min => x.min(y),
                    Max => x.max(y),
                    _ => unreachable!(),
                })
            } else {
                let (x, y) = (a.as_i64(), b.as_i64());
                Value::I64(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return Err("integer division by zero".into());
                        }
                        x.wrapping_div(y)
                    }
                    Rem => {
                        if y == 0 {
                            return Err("integer remainder by zero".into());
                        }
                        x.wrapping_rem(y)
                    }
                    Min => x.min(y),
                    Max => x.max(y),
                    _ => unreachable!(),
                })
            }
        }
        And | Or | Xor | Shl | Shr => {
            if float {
                return Err(format!("bitwise `{}` applied to a float", op.mnemonic()));
            }
            let (x, y) = (a.as_i64(), b.as_i64());
            Value::I64(match op {
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => ((x as u64) << (y as u64 & 63)) as i64,
                Shr => ((x as u64) >> (y as u64 & 63)) as i64,
                _ => unreachable!(),
            })
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let r = if float {
                let (x, y) = (a.as_f64(), b.as_f64());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (a.as_i64(), b.as_i64());
                match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => unreachable!(),
                }
            };
            Value::bool(r)
        }
    })
}

/// Evaluates a unary ALU operation.
#[inline]
pub(crate) fn eval_un(op: UnOp, a: Value) -> Result<Value, String> {
    Ok(match op {
        UnOp::Not => {
            if !a.is_int() {
                return Err("bitwise `not` applied to a float".into());
            }
            Value::I64(!a.as_i64())
        }
        UnOp::Neg => match a {
            Value::I64(v) => Value::I64(v.wrapping_neg()),
            Value::F64(v) => Value::F64(-v),
        },
        UnOp::Sqrt => Value::F64(a.as_f64().sqrt()),
        UnOp::Exp => Value::F64(a.as_f64().exp()),
        UnOp::Log => Value::F64(a.as_f64().ln()),
        UnOp::Abs => match a {
            Value::I64(v) => Value::I64(v.wrapping_abs()),
            Value::F64(v) => Value::F64(v.abs()),
        },
        UnOp::ItoF => Value::F64(a.as_f64()),
        UnOp::FtoI => Value::I64(a.as_i64()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one kernel on one value pair.
    struct One(Value, Value);

    impl LaneLoop for One {
        type Out = (Option<Value>, bool);
        fn run<K: Fn(Value, Value) -> Option<Value>>(self, k: K, can_fault: bool) -> Self::Out {
            (k(self.0, self.1), can_fault)
        }
    }

    /// Every kernel of the table agrees with the specification on every
    /// operand-type pairing, including the fault edges: same value, a
    /// refusal exactly where `eval_*` errs, and `can_fault` set on every
    /// op that can refuse.
    #[test]
    fn kernel_table_matches_the_specification() {
        use BinOp::*;
        let bins =
            [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max, Eq, Ne, Lt, Le, Gt, Ge];
        let uns = [
            UnOp::Not,
            UnOp::Neg,
            UnOp::Sqrt,
            UnOp::Exp,
            UnOp::Log,
            UnOp::Abs,
            UnOp::ItoF,
            UnOp::FtoI,
        ];
        let vals = [
            Value::I64(0),
            Value::I64(7),
            Value::I64(-3),
            Value::I64(i64::MIN),
            Value::I64(-1),
            Value::I64(65),
            Value::F64(0.0),
            Value::F64(2.5),
            Value::F64(-4.0),
            Value::F64(f64::NAN),
        ];
        // Bit-level equality, so NaN results compare too.
        let same = |x: Value, y: Value| match (x, y) {
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        let ops = bins
            .iter()
            .map(|&o| AluOp::Bin(o))
            .chain(uns.iter().map(|&o| AluOp::Un(o)))
            .chain([AluOp::Mov]);
        for op in ops {
            for &a in &vals {
                for &b in &vals {
                    let spec = match op {
                        AluOp::Bin(o) => eval_bin(o, a, b),
                        AluOp::Un(o) => eval_un(o, a),
                        AluOp::Mov => Ok(a),
                    };
                    let (got, can_fault) = op.dispatch(One(a, b));
                    match (got, spec) {
                        (Some(g), Ok(s)) => assert!(same(g, s), "{op:?}({a:?}, {b:?})"),
                        (None, Err(m)) => {
                            assert!(can_fault, "{op:?} refused but claims it cannot");
                            assert_eq!(op.fault(a, b), m);
                        }
                        (g, s) => panic!("{op:?}({a:?}, {b:?}): kernel {g:?}, spec {s:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn eval_bin_int_and_float() {
        assert_eq!(eval_bin(BinOp::Add, Value::I64(2), Value::I64(3)).unwrap(), Value::I64(5));
        assert_eq!(eval_bin(BinOp::Add, Value::I64(2), Value::F64(0.5)).unwrap(), Value::F64(2.5));
        assert_eq!(eval_bin(BinOp::Lt, Value::I64(1), Value::I64(2)).unwrap(), Value::TRUE);
        assert!(eval_bin(BinOp::Div, Value::I64(1), Value::I64(0)).is_err());
        assert!(eval_bin(BinOp::And, Value::F64(1.0), Value::I64(1)).is_err());
        assert_eq!(eval_bin(BinOp::Shl, Value::I64(1), Value::I64(4)).unwrap(), Value::I64(16));
    }

    #[test]
    fn eval_un_cases() {
        assert_eq!(eval_un(UnOp::Neg, Value::I64(3)).unwrap(), Value::I64(-3));
        assert_eq!(eval_un(UnOp::Sqrt, Value::F64(4.0)).unwrap(), Value::F64(2.0));
        assert_eq!(eval_un(UnOp::FtoI, Value::F64(2.9)).unwrap(), Value::I64(2));
        assert!(eval_un(UnOp::Not, Value::F64(1.0)).is_err());
    }
}
