//! Parser for the textual IR format produced by [`crate::display`].
//!
//! The grammar is line-oriented: table declarations, then functions. `;`
//! starts a comment running to end of line (a comment of exactly `entry`
//! after a block label marks a non-zero entry block).

use crate::function::{Block, Function};
use crate::ids::{BlockId, FuncId, Reg, TableId};
use crate::inst::{BinOp, Inst, ProfOp, Terminator, UnOp};
use crate::module::{Module, TableDecl, TableKind};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line where the failure occurred.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

/// Parses a module from its textual form.
///
/// # Errors
///
/// Returns the first syntax error with its line number. Semantic problems
/// (dangling registers, arity mismatches) are left to
/// [`crate::verify::verify_module`].
///
/// # Examples
///
/// ```
/// let text = "\
/// func @id(params=1, regs=1) {
/// b0:
///   ret r0
/// }
/// ";
/// let module = ppp_ir::parse_module(text)?;
/// assert_eq!(module.functions.len(), 1);
/// # Ok::<(), ppp_ir::ParseError>(())
/// ```
pub fn parse_module(text: &str) -> Result<Module> {
    // Pass 1: collect function names so calls can resolve forward.
    let mut names: HashMap<String, FuncId> = HashMap::new();
    let mut next = 0u32;
    for (ln, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if let Some(rest) = line.strip_prefix("func @") {
            let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
            if name.is_empty() {
                return Err(err(ln, "missing function name after 'func @'"));
            }
            if names.insert(name.clone(), FuncId(next)).is_some() {
                return Err(err(ln, format!("duplicate function @{name}")));
            }
            next += 1;
        }
    }

    let mut parser = Parser {
        names: &names,
        module: Module::new(),
    };
    let mut lines = text.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("table ") {
            parser.parse_table(ln, &line)?;
        } else if line.starts_with("func ") {
            parser.parse_function(ln, &line, &mut lines)?;
        } else {
            return Err(err(ln, format!("expected 'table' or 'func', got {line:?}")));
        }
    }
    Ok(parser.module)
}

fn strip_comment(s: &str) -> &str {
    match s.find(';') {
        Some(i) => &s[..i],
        None => s,
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.'
}

fn err(line0: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line: line0 + 1,
        message: message.into(),
    }
}

struct Parser<'a> {
    names: &'a HashMap<String, FuncId>,
    module: Module,
}

impl Parser<'_> {
    /// `table t0 func=@name array[24] hot=8`
    /// `table t1 func=@name hash[701x3] hot=5000`
    fn parse_table(&mut self, ln: usize, line: &str) -> Result<()> {
        let mut c = Cursor::new(ln, line);
        c.expect_word("table")?;
        let t = c.table_id()?;
        if t.index() != self.module.tables.len() {
            return Err(err(
                ln,
                format!("table ids must be declared in order; got {t}"),
            ));
        }
        c.expect_word("func")?;
        c.expect_char('=')?;
        let func = c.func_ref(self.names)?;
        let kind = if c.try_word("array") {
            c.expect_char('[')?;
            let size = c.unsigned()?;
            c.expect_char(']')?;
            TableKind::Array { size }
        } else if c.try_word("hash") {
            c.expect_char('[')?;
            let slots = c.unsigned()?;
            if slots < 3 {
                // Double hashing steps by `1 + key % (slots - 2)`.
                return Err(c.fail(format!("hash table needs at least 3 slots, got {slots}")));
            }
            c.expect_char('x')?;
            let max_probes = c.u32()?;
            c.expect_char(']')?;
            TableKind::Hash { slots, max_probes }
        } else {
            return Err(err(ln, "expected 'array[N]' or 'hash[SxP]'"));
        };
        c.expect_word("hot")?;
        c.expect_char('=')?;
        let hot_paths = c.unsigned()?;
        c.expect_end()?;
        self.module.add_table(TableDecl {
            func,
            kind,
            hot_paths,
        });
        Ok(())
    }

    /// `func @name(params=P, regs=R) {` ... `}`
    fn parse_function<'l>(
        &mut self,
        ln: usize,
        header: &str,
        lines: &mut std::iter::Peekable<impl Iterator<Item = (usize, &'l str)>>,
    ) -> Result<()> {
        let mut c = Cursor::new(ln, header);
        c.expect_word("func")?;
        c.expect_char('@')?;
        let name = c.ident()?;
        c.expect_char('(')?;
        c.expect_word("params")?;
        c.expect_char('=')?;
        let param_count = c.u32()?;
        c.expect_char(',')?;
        c.expect_word("regs")?;
        c.expect_char('=')?;
        let reg_count = c.u32()?;
        c.expect_char(')')?;
        c.expect_char('{')?;
        c.expect_end()?;

        let mut func = Function {
            name,
            param_count,
            reg_count,
            blocks: Vec::new(),
            entry: BlockId(0),
        };
        let mut current: Option<(BlockId, Vec<Inst>)> = None;

        loop {
            let (ln, raw) = lines
                .next()
                .ok_or_else(|| err(ln, "unterminated function body"))?;
            let no_comment = strip_comment(raw).trim().to_owned();
            let is_entry_comment = raw.contains("; entry");
            if no_comment.is_empty() {
                continue;
            }
            if no_comment == "}" {
                if current.is_some() {
                    return Err(err(ln, "block missing terminator before '}'"));
                }
                break;
            }
            if let Some(label) = no_comment.strip_suffix(':') {
                if current.is_some() {
                    return Err(err(ln, "previous block missing terminator"));
                }
                let id = parse_block_id(ln, label.trim())?;
                if id.index() != func.blocks.len() {
                    return Err(err(ln, format!("blocks must appear in order; got {id}")));
                }
                if is_entry_comment {
                    func.entry = id;
                }
                current = Some((id, Vec::new()));
                continue;
            }
            let (_, insts) = current
                .as_mut()
                .ok_or_else(|| err(ln, "instruction outside any block"))?;
            match self.parse_line(ln, &no_comment)? {
                Line::Inst(i) => insts.push(i),
                Line::Term(t) => {
                    let (_, insts) = current.take().expect("current checked above");
                    func.blocks.push(Block { insts, term: t });
                }
            }
        }
        self.module.add_function(func);
        Ok(())
    }

    fn parse_line(&self, ln: usize, line: &str) -> Result<Line> {
        let mut c = Cursor::new(ln, line);
        // Terminators and no-destination instructions first.
        if c.try_word("jmp") {
            let target = c.block_id()?;
            c.expect_end()?;
            return Ok(Line::Term(Terminator::Jump { target }));
        }
        if c.try_word("br") {
            let cond = c.reg()?;
            c.expect_char(',')?;
            let then_target = c.block_id()?;
            c.expect_char(',')?;
            let else_target = c.block_id()?;
            c.expect_end()?;
            return Ok(Line::Term(Terminator::Branch {
                cond,
                then_target,
                else_target,
            }));
        }
        if c.try_word("switch") {
            let disc = c.reg()?;
            c.expect_char(',')?;
            c.expect_char('[')?;
            let mut targets = Vec::new();
            if !c.peek_char(']') {
                loop {
                    targets.push(c.block_id()?);
                    if !c.try_char(',') {
                        break;
                    }
                }
            }
            c.expect_char(']')?;
            c.expect_char(',')?;
            let default = c.block_id()?;
            c.expect_end()?;
            return Ok(Line::Term(Terminator::Switch {
                disc,
                targets,
                default,
            }));
        }
        if c.try_word("ret") {
            if c.at_end() {
                return Ok(Line::Term(Terminator::Return { value: None }));
            }
            let v = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Term(Terminator::Return { value: Some(v) }));
        }
        if c.try_word("store") {
            let addr = c.reg()?;
            c.expect_char(',')?;
            let src = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Store { addr, src }));
        }
        if c.try_word("emit") {
            let src = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Emit { src }));
        }
        if c.try_word("prof") {
            return Ok(Line::Inst(Inst::Prof(self.parse_prof(&mut c)?)));
        }
        if c.try_word("call") {
            let (callee, args) = self.parse_call_tail(&mut c)?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Call {
                dst: None,
                callee,
                args,
            }));
        }
        // Otherwise: `rN = ...`
        let dst = c.reg()?;
        c.expect_char('=')?;
        if c.try_word("const") {
            let value = c.signed()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Const { dst, value }));
        }
        if c.try_word("copy") {
            let src = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Copy { dst, src }));
        }
        if c.try_word("load") {
            let addr = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Load { dst, addr }));
        }
        if c.try_word("rand") {
            let bound = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Rand { dst, bound }));
        }
        if c.try_word("call") {
            let (callee, args) = self.parse_call_tail(&mut c)?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Call {
                dst: Some(dst),
                callee,
                args,
            }));
        }
        let word = c.ident()?;
        if let Some(op) = UnOp::from_mnemonic(&word) {
            let src = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Unary { dst, op, src }));
        }
        if let Some(op) = BinOp::from_mnemonic(&word) {
            let lhs = c.reg()?;
            c.expect_char(',')?;
            let rhs = c.reg()?;
            c.expect_end()?;
            return Ok(Line::Inst(Inst::Binary { dst, op, lhs, rhs }));
        }
        Err(err(ln, format!("unknown operation {word:?}")))
    }

    fn parse_call_tail(&self, c: &mut Cursor<'_>) -> Result<(FuncId, Vec<Reg>)> {
        let callee = c.func_ref(self.names)?;
        c.expect_char('(')?;
        let mut args = Vec::new();
        if !c.peek_char(')') {
            loop {
                args.push(c.reg()?);
                if !c.try_char(',') {
                    break;
                }
            }
        }
        c.expect_char(')')?;
        Ok((callee, args))
    }

    /// After the `prof` keyword:
    /// `r = C` | `r += C` | `count tN[r]` | `count tN[r + C]` | `count tN[C]`
    fn parse_prof(&self, c: &mut Cursor<'_>) -> Result<ProfOp> {
        let checked = if c.try_word("countck") {
            Some(true)
        } else if c.try_word("count") {
            Some(false)
        } else {
            None
        };
        if let Some(checked) = checked {
            let table = c.table_id()?;
            c.expect_char('[')?;
            if c.try_word("r") {
                if c.try_char('+') {
                    let addend = c.signed()?;
                    c.expect_char(']')?;
                    c.expect_end()?;
                    return Ok(if checked {
                        ProfOp::CountRPlusChecked { table, addend }
                    } else {
                        ProfOp::CountRPlus { table, addend }
                    });
                }
                c.expect_char(']')?;
                c.expect_end()?;
                return Ok(if checked {
                    ProfOp::CountRChecked { table }
                } else {
                    ProfOp::CountR { table }
                });
            }
            if checked {
                return Err(c.fail("countck requires an r-relative index"));
            }
            let index = c.signed()?;
            c.expect_char(']')?;
            c.expect_end()?;
            return Ok(ProfOp::CountConst { table, index });
        }
        c.expect_word("r")?;
        if c.try_char('+') {
            c.expect_char('=')?;
            let value = c.signed()?;
            c.expect_end()?;
            return Ok(ProfOp::AddR { value });
        }
        c.expect_char('=')?;
        let value = c.signed()?;
        c.expect_end()?;
        Ok(ProfOp::SetR { value })
    }
}

enum Line {
    Inst(Inst),
    Term(Terminator),
}

fn parse_block_id(ln: usize, s: &str) -> Result<BlockId> {
    s.strip_prefix('b')
        .and_then(|n| n.parse::<u32>().ok())
        .map(BlockId)
        .ok_or_else(|| err(ln, format!("expected block label like 'b0', got {s:?}")))
}

/// Tiny character cursor over one line.
struct Cursor<'a> {
    line0: usize,
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(line0: usize, text: &'a str) -> Self {
        Self {
            line0,
            text,
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with([' ', '\t']) {
            self.pos += 1;
        }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }

    fn fail(&self, message: impl Into<String>) -> ParseError {
        err(self.line0, message)
    }

    fn expect_end(&mut self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.fail(format!("unexpected trailing input {:?}", self.rest())))
        }
    }

    fn try_char(&mut self, ch: char) -> bool {
        self.skip_ws();
        if self.rest().starts_with(ch) {
            self.pos += ch.len_utf8();
            true
        } else {
            false
        }
    }

    fn peek_char(&mut self, ch: char) -> bool {
        self.skip_ws();
        self.rest().starts_with(ch)
    }

    fn expect_char(&mut self, ch: char) -> Result<()> {
        if self.try_char(ch) {
            Ok(())
        } else {
            Err(self.fail(format!("expected {ch:?} at {:?}", self.rest())))
        }
    }

    fn try_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        if let Some(after) = rest.strip_prefix(word) {
            if after.chars().next().is_none_or(|c| !is_ident(c)) {
                self.pos += word.len();
                return true;
            }
        }
        false
    }

    fn expect_word(&mut self, word: &str) -> Result<()> {
        if self.try_word(word) {
            Ok(())
        } else {
            Err(self.fail(format!("expected {word:?} at {:?}", self.rest())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let rest = self.rest();
        let n = rest.chars().take_while(|c| is_ident(*c)).count();
        if n == 0 {
            return Err(self.fail(format!("expected identifier at {rest:?}")));
        }
        let word = rest[..n].to_owned();
        self.pos += n;
        Ok(word)
    }

    fn unsigned(&mut self) -> Result<u64> {
        self.skip_ws();
        let rest = self.rest();
        let n = rest.chars().take_while(char::is_ascii_digit).count();
        if n == 0 {
            return Err(self.fail(format!("expected number at {rest:?}")));
        }
        let v = rest[..n]
            .parse::<u64>()
            .map_err(|e| self.fail(format!("bad number: {e}")))?;
        self.pos += n;
        Ok(v)
    }

    /// An unsigned number that must fit a `u32` field.
    fn u32(&mut self) -> Result<u32> {
        let v = self.unsigned()?;
        u32::try_from(v).map_err(|_| self.fail(format!("{v} does not fit in 32 bits")))
    }

    fn signed(&mut self) -> Result<i64> {
        self.skip_ws();
        let neg = self.try_char('-');
        let v = self.unsigned()?;
        let v = if neg {
            0i64.checked_sub_unsigned(v)
        } else {
            i64::try_from(v).ok()
        };
        v.ok_or_else(|| self.fail("number does not fit in 64 signed bits"))
    }

    fn reg(&mut self) -> Result<Reg> {
        self.skip_ws();
        if !self.rest().starts_with('r') {
            return Err(self.fail(format!("expected register at {:?}", self.rest())));
        }
        self.pos += 1;
        Ok(Reg(self.u32()?))
    }

    fn block_id(&mut self) -> Result<BlockId> {
        self.skip_ws();
        if !self.rest().starts_with('b') {
            return Err(self.fail(format!("expected block at {:?}", self.rest())));
        }
        self.pos += 1;
        Ok(BlockId(self.u32()?))
    }

    fn table_id(&mut self) -> Result<TableId> {
        self.skip_ws();
        if !self.rest().starts_with('t') {
            return Err(self.fail(format!("expected table at {:?}", self.rest())));
        }
        self.pos += 1;
        Ok(TableId(self.u32()?))
    }

    fn func_ref(&mut self, names: &HashMap<String, FuncId>) -> Result<FuncId> {
        self.expect_char('@')?;
        let name = self.ident()?;
        names
            .get(&name)
            .copied()
            .ok_or_else(|| self.fail(format!("unknown function @{name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::print_module;
    use crate::verify::verify_module;

    const SAMPLE: &str = "\
; a comment line
table t0 func=@g array[12] hot=4

func @g(params=1, regs=3) {
b0:
  r1 = const -5
  r2 = add r0, r1
  prof r = 0
  prof r += 3
  prof count t0[r]
  prof count t0[r + 2]
  prof count t0[5]
  prof countck t0[r]
  prof countck t0[r + -2]
  ret r2
}

func @main(params=0, regs=6) {
b0:
  r0 = const 7
  r1 = rand r0
  r2 = call @g(r1)
  call @g(r2)
  r3 = neg r2
  store r0, r3
  r4 = load r0
  emit r4
  br r4, b1, b2
b1:
  switch r1, [b2, b3], b3
b2:
  jmp b3
b3:
  ret
}
";

    #[test]
    fn parses_sample() {
        let m = parse_module(SAMPLE).expect("sample parses");
        assert_eq!(m.functions.len(), 2);
        assert_eq!(m.tables.len(), 1);
        assert_eq!(verify_module(&m), Ok(()));
        let main = m.function_by_name("main").unwrap();
        assert_eq!(m.function(main).blocks.len(), 4);
    }

    #[test]
    fn print_parse_roundtrip() {
        let m = parse_module(SAMPLE).unwrap();
        let text = print_module(&m);
        let m2 = parse_module(&text).expect("printed module parses");
        assert_eq!(m, m2);
        assert_eq!(print_module(&m2), text);
    }

    #[test]
    fn forward_references_resolve() {
        let text = "\
func @a(params=0, regs=1) {
b0:
  r0 = call @b()
  ret r0
}
func @b(params=0, regs=1) {
b0:
  r0 = const 1
  ret r0
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(verify_module(&m), Ok(()));
    }

    #[test]
    fn entry_comment_sets_entry() {
        let text = "\
func @f(params=0, regs=0) {
b0:
  ret
b1: ; entry
  jmp b0
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.functions[0].entry, BlockId(1));
        // And it round-trips.
        let m2 = parse_module(&print_module(&m)).unwrap();
        assert_eq!(m2.functions[0].entry, BlockId(1));
    }

    #[test]
    fn error_reports_line() {
        let text = "func @f(params=0, regs=0) {\nb0:\n  bogus r1\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn unknown_callee_rejected() {
        let text = "func @f(params=0, regs=1) {\nb0:\n  r0 = call @nope()\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.message.contains("unknown function"));
    }

    #[test]
    fn missing_terminator_rejected() {
        let text = "func @f(params=0, regs=1) {\nb0:\n  r0 = const 1\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.message.contains("terminator"));
    }

    #[test]
    fn out_of_order_blocks_rejected() {
        let text = "func @f(params=0, regs=0) {\nb1:\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.message.contains("order"));
    }

    #[test]
    fn duplicate_function_rejected() {
        let text = "func @f(params=0, regs=0) {\nb0:\n  ret\n}\nfunc @f(params=0, regs=0) {\nb0:\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    fn table_line(kind: &str) -> String {
        format!("table t0 func=@f {kind} hot=4\nfunc @f(params=0, regs=0) {{\nb0:\n  ret\n}}\n")
    }

    #[test]
    fn tiny_hash_tables_rejected() {
        for slots in 0..3 {
            let e = parse_module(&table_line(&format!("hash[{slots}x3]"))).unwrap_err();
            assert_eq!(e.line, 1, "{slots} slots");
            assert!(e.message.contains("at least 3 slots"), "{e}");
        }
        let m = parse_module(&table_line("hash[3x3]")).expect("3 slots parse");
        assert_eq!(
            m.tables[0].kind,
            TableKind::Hash {
                slots: 3,
                max_probes: 3
            }
        );
    }

    #[test]
    fn values_over_u32_rejected_not_truncated() {
        let big = (1u64 << 32) + 3;
        let e = parse_module(&table_line(&format!("hash[701x{big}]"))).unwrap_err();
        assert!(e.message.contains("32 bits"), "{e}");
        for header in [
            format!("func @f(params={big}, regs=0) {{"),
            format!("func @f(params=0, regs={big}) {{"),
        ] {
            let e = parse_module(&format!("{header}\nb0:\n  ret\n}}\n")).unwrap_err();
            assert_eq!(e.line, 1, "{header}");
            assert!(e.message.contains("32 bits"), "{e}");
        }
        let e = parse_module(&format!(
            "func @f(params=0, regs=1) {{\nb0:\n  r{big} = const 1\n  ret\n}}\n"
        ))
        .unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn signed_immediates_cover_i64() {
        for v in [i64::MIN, i64::MAX, -1, 0] {
            let text = format!("func @f(params=0, regs=1) {{\nb0:\n  r0 = const {v}\n  ret\n}}\n");
            let m = parse_module(&text).expect("in range");
            assert_eq!(
                m.functions[0].blocks[0].insts[0],
                Inst::Const {
                    dst: Reg(0),
                    value: v
                }
            );
        }
        let e = parse_module(
            "func @f(params=0, regs=1) {\nb0:\n  r0 = const 9223372036854775808\n  ret\n}\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn empty_switch_targets_parse() {
        let text = "func @f(params=0, regs=1) {\nb0:\n  r0 = const 0\n  switch r0, [], b1\nb1:\n  ret\n}\n";
        let m = parse_module(text).unwrap();
        assert_eq!(verify_module(&m), Ok(()));
    }
}
