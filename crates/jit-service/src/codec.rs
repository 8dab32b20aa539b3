//! Exact text codecs for the snapshot parts that are not plain numbers.
//!
//! The [`crate::wire`] snapshot encoding (which the durable store also
//! persists) carries profiles, temporal inputs and candidates as raw
//! float bits and fingerprints as digests. What remains — constraint
//! ASTs and temporal update functions — is encoded here into compact
//! text blobs that the wire encoding embeds, with every `f64` written as
//! its 16-hex-digit IEEE-754 bit pattern, so a decode is
//! **bit-identical** to the encoded value: round-tripped
//! constraint sets compile to the same [`jit_constraints::BoundConstraint`]
//! content digests, which is what makes a persisted re-serve replay
//! exactly like an in-memory one.
//!
//! The grammar is length-/count-prefixed (no delimiters to escape):
//!
//! ```text
//! constraint := 'T'                                  -- True
//!             | 'C' op lin lin                       -- Cmp
//!             | 'A' count ':' constraint*            -- And
//!             | 'O' count ':' constraint*            -- Or
//!             | 'N' constraint                       -- Not
//! op         := 'l' | '<' | 'g' | '>' | '=' | '!'    -- Le Lt Ge Gt Eq Ne
//! lin        := 'L' count ':' f64 term*              -- constant, then terms
//! term       := var f64
//! var        := 'F' len ':' bytes | 'D' | 'G' | 'P'  -- feature, diff/gap/conf
//! f64        := 16 hex digits (IEEE-754 bits)
//! ```

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use jit_constraints::{CmpOp, Constraint, LinExpr, Special, VarRef};
use jit_data::{FeatureSchema, TemporalSpec};
use jit_temporal::update::{Override, TemporalUpdateFn};
use std::fmt;

/// A decode failure: where in the blob, and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset into the encoded text.
    pub offset: usize,
    /// What the decoder expected at that offset.
    pub expected: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot codec: expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for CodecError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, expected: &'static str) -> CodecError {
        CodecError { offset: self.pos, expected }
    }

    fn next(&mut self, expected: &'static str) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err(expected))?;
        self.pos += 1;
        Ok(b)
    }

    // Named `expect_byte` (not `expect`): this is a Result-returning
    // parser step, and the no-panic-paths contract reserves `.expect(`
    // for the panicking `Option`/`Result` method.
    fn expect_byte(&mut self, b: u8, expected: &'static str) -> Result<(), CodecError> {
        if self.next(expected)? == b {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(expected))
        }
    }

    /// Decimal count/length terminated by `:`.
    fn count(&mut self) -> Result<usize, CodecError> {
        let start = self.pos;
        let mut n: usize = 0;
        let mut digits = 0usize;
        loop {
            match self.next("decimal count")? {
                b @ b'0'..=b'9' => {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(usize::from(b - b'0')))
                        .ok_or(CodecError { offset: start, expected: "sane count" })?;
                    digits += 1;
                }
                b':' if digits > 0 => return Ok(n),
                _ => {
                    self.pos -= 1;
                    return Err(self.err("decimal count"));
                }
            }
        }
    }

    fn f64_bits(&mut self) -> Result<f64, CodecError> {
        if self.pos + 16 > self.bytes.len() {
            return Err(self.err("16 hex digits"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 16])
            .map_err(|_| self.err("16 hex digits"))?;
        let bits =
            u64::from_str_radix(hex, 16).map_err(|_| self.err("16 hex digits"))?;
        self.pos += 16;
        Ok(f64::from_bits(bits))
    }

    fn str_of(&mut self, len: usize) -> Result<&'a str, CodecError> {
        if self.pos + len > self.bytes.len() {
            return Err(self.err("length-prefixed string"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|_| self.err("utf-8 string"))?;
        self.pos += len;
        Ok(s)
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn push_f64(out: &mut String, v: f64) {
    out.push_str(&format!("{:016x}", v.to_bits()));
}

/// Pushes a decimal count/length. Only f64 payloads must travel as
/// bits; `usize` counts format exactly in decimal.
fn push_usize(out: &mut String, n: usize) {
    // jit-analyze: allow(no-lossy-float-fmt) — usize is integral; decimal text is exact
    out.push_str(&n.to_string());
}

// ---------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------

fn encode_lin(out: &mut String, e: &LinExpr) {
    let terms: Vec<(&VarRef, f64)> = e.terms().collect();
    out.push('L');
    push_usize(out, terms.len());
    out.push(':');
    push_f64(out, e.constant_part());
    for (var, coef) in terms {
        match var {
            VarRef::Feature(name) => {
                out.push('F');
                push_usize(out, name.len());
                out.push(':');
                out.push_str(name);
            }
            VarRef::Special(Special::Diff) => out.push('D'),
            VarRef::Special(Special::Gap) => out.push('G'),
            VarRef::Special(Special::Confidence) => out.push('P'),
        }
        push_f64(out, coef);
    }
}

fn decode_lin(cur: &mut Cursor<'_>) -> Result<LinExpr, CodecError> {
    cur.expect_byte(b'L', "'L' (linear expression)")?;
    let n = cur.count()?;
    let constant = cur.f64_bits()?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        let var = match cur.next("variable tag")? {
            b'F' => {
                let len = cur.count()?;
                VarRef::Feature(cur.str_of(len)?.to_owned())
            }
            b'D' => VarRef::Special(Special::Diff),
            b'G' => VarRef::Special(Special::Gap),
            b'P' => VarRef::Special(Special::Confidence),
            _ => {
                cur.pos -= 1;
                return Err(cur.err("variable tag F/D/G/P"));
            }
        };
        terms.push((var, cur.f64_bits()?));
    }
    Ok(LinExpr::from_terms(terms, constant))
}

fn op_char(op: CmpOp) -> char {
    match op {
        CmpOp::Le => 'l',
        CmpOp::Lt => '<',
        CmpOp::Ge => 'g',
        CmpOp::Gt => '>',
        CmpOp::Eq => '=',
        CmpOp::Ne => '!',
    }
}

fn encode_constraint_into(out: &mut String, c: &Constraint) {
    match c {
        Constraint::True => out.push('T'),
        Constraint::Cmp { lhs, op, rhs } => {
            out.push('C');
            out.push(op_char(*op));
            encode_lin(out, lhs);
            encode_lin(out, rhs);
        }
        Constraint::And(cs) => {
            out.push('A');
            push_usize(out, cs.len());
            out.push(':');
            for c in cs {
                encode_constraint_into(out, c);
            }
        }
        Constraint::Or(cs) => {
            out.push('O');
            push_usize(out, cs.len());
            out.push(':');
            for c in cs {
                encode_constraint_into(out, c);
            }
        }
        Constraint::Not(inner) => {
            out.push('N');
            encode_constraint_into(out, inner);
        }
    }
}

fn decode_constraint_inner(cur: &mut Cursor<'_>) -> Result<Constraint, CodecError> {
    match cur.next("constraint tag T/C/A/O/N")? {
        b'T' => Ok(Constraint::True),
        b'C' => {
            let op = match cur.next("comparison op")? {
                b'l' => CmpOp::Le,
                b'<' => CmpOp::Lt,
                b'g' => CmpOp::Ge,
                b'>' => CmpOp::Gt,
                b'=' => CmpOp::Eq,
                b'!' => CmpOp::Ne,
                _ => {
                    cur.pos -= 1;
                    return Err(cur.err("comparison op"));
                }
            };
            let lhs = decode_lin(cur)?;
            let rhs = decode_lin(cur)?;
            Ok(Constraint::Cmp { lhs, op, rhs })
        }
        b'A' => {
            let n = cur.count()?;
            let mut cs = Vec::with_capacity(n);
            for _ in 0..n {
                cs.push(decode_constraint_inner(cur)?);
            }
            Ok(Constraint::And(cs))
        }
        b'O' => {
            let n = cur.count()?;
            let mut cs = Vec::with_capacity(n);
            for _ in 0..n {
                cs.push(decode_constraint_inner(cur)?);
            }
            Ok(Constraint::Or(cs))
        }
        b'N' => Ok(Constraint::Not(Box::new(decode_constraint_inner(cur)?))),
        _ => {
            cur.pos -= 1;
            Err(cur.err("constraint tag T/C/A/O/N"))
        }
    }
}

/// Encodes a constraint AST into the codec's text form.
pub fn encode_constraint(c: &Constraint) -> String {
    let mut out = String::new();
    encode_constraint_into(&mut out, c);
    out
}

/// Decodes [`encode_constraint`] output. The whole text must be consumed.
pub fn decode_constraint(text: &str) -> Result<Constraint, CodecError> {
    let mut cur = Cursor::new(text);
    let c = decode_constraint_inner(&mut cur)?;
    if cur.at_end() {
        Ok(c)
    } else {
        Err(cur.err("end of constraint"))
    }
}

// ---------------------------------------------------------------------
// Temporal update functions
// ---------------------------------------------------------------------

fn encode_spec(out: &mut String, spec: &TemporalSpec) {
    match spec {
        TemporalSpec::Static => out.push('s'),
        TemporalSpec::Linear { per_period } => {
            out.push('l');
            push_f64(out, *per_period);
        }
        TemporalSpec::Compound { rate } => {
            out.push('c');
            push_f64(out, *rate);
        }
    }
}

fn decode_spec(cur: &mut Cursor<'_>) -> Result<TemporalSpec, CodecError> {
    match cur.next("temporal spec tag s/l/c")? {
        b's' => Ok(TemporalSpec::Static),
        b'l' => Ok(TemporalSpec::Linear { per_period: cur.f64_bits()? }),
        b'c' => Ok(TemporalSpec::Compound { rate: cur.f64_bits()? }),
        _ => {
            cur.pos -= 1;
            Err(cur.err("temporal spec tag s/l/c"))
        }
    }
}

/// Encodes an optional update function. `None` (schema default at serve
/// time) encodes as `"-"`.
pub fn encode_update_fn(update: Option<&TemporalUpdateFn>) -> String {
    let Some(update) = update else {
        return String::from("-");
    };
    let mut out = String::from("U");
    push_usize(&mut out, update.specs().len());
    out.push(':');
    for (spec, over) in update.specs().iter().zip(update.overrides()) {
        encode_spec(&mut out, spec);
        match over {
            None => out.push('n'),
            Some(Override::Spec(s)) => {
                out.push('o');
                encode_spec(&mut out, s);
            }
            Some(Override::Trajectory(traj)) => {
                out.push('t');
                push_usize(&mut out, traj.len());
                out.push(':');
                for v in traj {
                    push_f64(&mut out, *v);
                }
            }
        }
    }
    out
}

/// Decodes [`encode_update_fn`] output against the serving schema.
///
/// The encoded dimension must match `schema.dim()` — an update function
/// recorded under a different schema cannot be rebuilt faithfully (the
/// store separately rejects such snapshots by schema digest).
pub fn decode_update_fn(
    text: &str,
    schema: &FeatureSchema,
) -> Result<Option<TemporalUpdateFn>, CodecError> {
    if text == "-" {
        return Ok(None);
    }
    let mut cur = Cursor::new(text);
    cur.expect_byte(b'U', "'U' or '-'")?;
    let dim = cur.count()?;
    let mut specs = Vec::with_capacity(dim);
    let mut overrides = Vec::with_capacity(dim);
    for _ in 0..dim {
        specs.push(decode_spec(&mut cur)?);
        match cur.next("override tag n/o/t")? {
            b'n' => overrides.push(None),
            b'o' => overrides.push(Some(Override::Spec(decode_spec(&mut cur)?))),
            b't' => {
                let n = cur.count()?;
                let mut traj = Vec::with_capacity(n);
                for _ in 0..n {
                    traj.push(cur.f64_bits()?);
                }
                overrides.push(Some(Override::Trajectory(traj)));
            }
            _ => {
                cur.pos -= 1;
                return Err(cur.err("override tag n/o/t"));
            }
        }
    }
    if !cur.at_end() {
        return Err(cur.err("end of update function"));
    }
    TemporalUpdateFn::from_parts(schema, specs, overrides)
        .ok_or(CodecError { offset: 0, expected: "schema-dimension update fn" })
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_constraints::builder::{confidence, diff, feature, gap};

    fn round_trip(c: &Constraint) {
        let text = encode_constraint(c);
        let back = decode_constraint(&text).expect("decodes");
        // Structural equality via re-encoding (Constraint lacks
        // PartialEq); the encoding writes every float's exact bits, so
        // equal encodings mean bit-identical ASTs.
        assert_eq!(encode_constraint(&back), text);
    }

    #[test]
    fn constraint_round_trips_cover_the_grammar() {
        round_trip(&Constraint::True);
        round_trip(&feature("income").le(80_000.0));
        round_trip(&gap().lt(3.0));
        round_trip(&diff().ge(-0.0));
        round_trip(&confidence().gt(0.75));
        round_trip(&feature("a b:c").ne(f64::MIN_POSITIVE / 2.0));
        round_trip(
            &feature("income")
                .le(80_000.0)
                .and(gap().le(2.0).or(diff().le(1500.0)))
                .and(Constraint::Not(Box::new(feature("debt").eq(0.1 + 0.2)))),
        );
        // Multi-term linear expressions keep coefficients bit-exactly.
        let lin = jit_constraints::LinExpr::feature("income")
            .plus(jit_constraints::LinExpr::feature("debt").times(-0.25))
            .offset(1e-300);
        round_trip(&Constraint::Cmp {
            lhs: lin,
            op: CmpOp::Le,
            rhs: jit_constraints::LinExpr::constant(5e-324),
        });
    }

    #[test]
    fn constraint_decode_rejects_malformed_text() {
        assert!(decode_constraint("").is_err());
        assert!(decode_constraint("X").is_err());
        assert!(decode_constraint("TT").is_err(), "trailing garbage");
        assert!(decode_constraint("Cz").is_err(), "bad op");
        assert!(decode_constraint("A2:T").is_err(), "count larger than body");
        assert!(decode_constraint("ClL0:zzzz").is_err(), "bad hex");
        let valid = encode_constraint(&feature("income").le(1.0));
        assert!(decode_constraint(&valid[..valid.len() - 1]).is_err(), "truncated");
    }

    #[test]
    fn update_fn_round_trips_bit_exactly() {
        let schema = FeatureSchema::lending_club();
        assert!(decode_update_fn("-", &schema).unwrap().is_none());
        let mut update = TemporalUpdateFn::from_schema(&schema);
        update.override_feature("debt", Override::Trajectory(vec![1_500.0, -0.0, 0.3]));
        update.override_feature("income", Override::Spec(TemporalSpec::Static));
        let text = encode_update_fn(Some(&update));
        let back = decode_update_fn(&text, &schema).unwrap().expect("some");
        assert_eq!(encode_update_fn(Some(&back)), text);
        // And behaviourally identical.
        let x = LendingClubProfile::john();
        for t in 0..4 {
            let a = update.project(&x, t);
            let b = back.project(&x, t);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// Local alias so the test reads clearly without a jit-data dev-dep
    /// on the generator; John's profile is a public fixture.
    struct LendingClubProfile;
    impl LendingClubProfile {
        fn john() -> Vec<f64> {
            vec![29.0, 0.0, 46_000.0, 2_300.0, 4.0, 24_000.0]
        }
    }

    #[test]
    fn update_fn_decode_rejects_wrong_dimension_and_garbage() {
        let schema = FeatureSchema::lending_club();
        assert!(decode_update_fn("U2:snsn", &schema).is_err(), "dim 2 != 6");
        assert!(decode_update_fn("", &schema).is_err());
        assert!(decode_update_fn("Ux", &schema).is_err());
        let valid = encode_update_fn(Some(&TemporalUpdateFn::from_schema(&schema)));
        assert!(decode_update_fn(&format!("{valid}z"), &schema).is_err());
    }
}
