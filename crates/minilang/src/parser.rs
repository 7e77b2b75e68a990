//! Recursive-descent parser for minilang.

use crate::ast::*;
use crate::error::LangError;
use crate::span::{NodeIdGen, Span};
use crate::token::{Lexer, Tok, Token};

/// Parse a complete program from source text.
pub fn parse(src: &str) -> Result<Program, LangError> {
    let tokens = Lexer::new(src).lex()?;
    Parser::new(src, tokens).program()
}

/// Deepest nesting a program may have, counted over blocks, statements and
/// expressions, parentheses included. The parser and every pass after it —
/// resolution, compilation, both engines, the analyses, annotation, unit
/// test and path-coverage generation — recurse once per level, so deeper
/// input is refused here, not left to overflow a stack: `Patty::run` on a
/// program at this depth finishes on a 2 MiB thread.
const MAX_DEPTH: usize = 128;

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    ids: NodeIdGen,
    /// Blocks, statements and expressions enclosing the parse point.
    depth: usize,
    /// Height of the expression the last expression parser returned: a
    /// chain like `a + b + c` or `a.b.c` nests its left operand one level
    /// deeper per link without the parser recursing.
    height: usize,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str, tokens: Vec<Token>) -> Parser<'s> {
        Parser { src, tokens, pos: 0, ids: NodeIdGen::new(), depth: 0, height: 0 }
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, LangError>) -> Result<T, LangError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep(self.peek_span()));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Refuse an expression of height `height` here if its deepest node
    /// would sit past [`MAX_DEPTH`]; `at` is the link that deepened it.
    fn check_height(&self, height: usize, at: Span) -> Result<(), LangError> {
        if self.depth + height - 1 > MAX_DEPTH {
            return Err(self.too_deep(at));
        }
        Ok(())
    }

    fn too_deep(&self, at: Span) -> LangError {
        let line_start = self.src[..at.lo as usize].rfind('\n').map_or(0, |nl| nl + 1);
        let column = self.src[line_start..at.lo as usize].chars().count() + 1;
        LangError::parse(at.line, format!("nesting deeper than {MAX_DEPTH} levels at column {column}"))
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].span.line
    }

    /// Consume the current token, moving its payload out: a consumed
    /// token's span is read again, its `tok` never.
    fn bump(&mut self) -> Token {
        let t = &mut self.tokens[self.pos];
        let t = Token { tok: std::mem::replace(&mut t.tok, Tok::Eof), span: t.span };
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Consume an identifier, string or region token and move its text out.
    fn bump_text(&mut self) -> String {
        match self.bump().tok {
            Tok::Ident(text) | Tok::Str(text) | Tok::Region(text) => text,
            other => unreachable!("bump_text on `{other}`"),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Token, LangError> {
        if self.peek() == &tok {
            Ok(self.bump())
        } else {
            Err(LangError::parse(
                self.line(),
                format!("expected `{}`, found `{}`", tok, self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), LangError> {
        match self.peek() {
            Tok::Ident(_) => {
                let span = self.peek_span();
                Ok((self.bump_text(), span))
            }
            other => Err(LangError::parse(
                self.line(),
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    fn program(mut self) -> Result<Program, LangError> {
        let mut classes = Vec::new();
        let mut funcs = Vec::new();
        while self.peek() != &Tok::Eof {
            match self.peek() {
                Tok::Class => classes.push(self.class_decl()?),
                Tok::Fn => funcs.push(self.func_decl()?),
                other => {
                    return Err(LangError::parse(
                        self.line(),
                        format!("expected `class` or `fn` at top level, found `{other}`"),
                    ))
                }
            }
        }
        Ok(Program::new(classes, funcs, self.ids.count(), self.src.to_string()))
    }

    fn class_decl(&mut self) -> Result<ClassDecl, LangError> {
        let id = self.ids.fresh();
        let start = self.expect(Tok::Class)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&Tok::RBrace) {
            match self.peek() {
                Tok::Var => {
                    let fid = self.ids.fresh();
                    let fstart = self.bump().span; // var
                    let (fname, _) = self.expect_ident()?;
                    let init = if self.eat(&Tok::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    let end = self.expect(Tok::Semi)?.span;
                    fields.push(FieldDecl {
                        id: fid,
                        span: fstart.to(end),
                        name: fname,
                        init,
                    });
                }
                Tok::Fn => methods.push(self.func_decl()?),
                other => {
                    return Err(LangError::parse(
                        self.line(),
                        format!("expected field or method in class body, found `{other}`"),
                    ))
                }
            }
        }
        let span = start.to(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(ClassDecl { id, span, name, fields, methods })
    }

    fn func_decl(&mut self) -> Result<FuncDecl, LangError> {
        let id = self.ids.fresh();
        let start = self.expect(Tok::Fn)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let (p, _) = self.expect_ident()?;
                params.push(p);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        let span = start.to(body.span);
        Ok(FuncDecl { id, span, name, params, body })
    }

    fn block(&mut self) -> Result<Block, LangError> {
        self.nested(Self::block_inner)
    }

    fn block_inner(&mut self) -> Result<Block, LangError> {
        let id = self.ids.fresh();
        let start = self.expect(Tok::LBrace)?.span;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(LangError::parse(self.line(), "unclosed block".into()));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(Tok::RBrace)?.span;
        Ok(Block { id, span: start.to(end), stmts })
    }

    /// A sequence of statements terminated by `#endregion` (exclusive).
    fn region_body(&mut self, start: Span) -> Result<Block, LangError> {
        let id = self.ids.fresh();
        let mut stmts = Vec::new();
        while self.peek() != &Tok::EndRegion {
            if self.peek() == &Tok::Eof {
                return Err(LangError::parse(self.line(), "unclosed #region".into()));
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(Tok::EndRegion)?.span;
        Ok(Block { id, span: start.to(end), stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, LangError> {
        let id = self.ids.fresh();
        let start = self.peek_span();
        let kind = match self.peek() {
            Tok::Region(_) => {
                let label = self.bump_text();
                let body = self.nested(|p| p.region_body(start))?;
                return Ok(Stmt { id, span: start.to(body.span), kind: StmtKind::Region { label, body } });
            }
            Tok::Var => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let init = self.expr()?;
                self.expect(Tok::Semi)?;
                StmtKind::VarDecl { name, init }
            }
            Tok::If => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_blk = self.block()?;
                let else_blk = if self.eat(&Tok::Else) {
                    if self.peek() == &Tok::If {
                        // else-if: wrap in a synthetic block, a level of its own
                        let inner = self.nested(Self::stmt)?;
                        let span = inner.span;
                        Some(Block { id: self.ids.fresh(), span, stmts: vec![inner] })
                    } else {
                        Some(self.block()?)
                    }
                } else {
                    None
                };
                StmtKind::If { cond, then_blk, else_blk }
            }
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                StmtKind::While { cond, body }
            }
            Tok::For => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.expect(Tok::Semi)?;
                    None
                } else {
                    Some(Box::new(self.nested(|p| p.simple_stmt(true))?))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let update = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.nested(|p| p.simple_stmt(false))?))
                };
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                StmtKind::For { init, cond, update, body }
            }
            Tok::Foreach => {
                self.bump();
                self.expect(Tok::LParen)?;
                let (var, _) = self.expect_ident()?;
                self.expect(Tok::In)?;
                let iter = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                StmtKind::Foreach { var, iter, body }
            }
            Tok::Break => {
                self.bump();
                self.expect(Tok::Semi)?;
                StmtKind::Break
            }
            Tok::Continue => {
                self.bump();
                self.expect(Tok::Semi)?;
                StmtKind::Continue
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                StmtKind::Return(value)
            }
            Tok::LBrace => StmtKind::Block(self.block()?),
            _ => {
                let s = self.simple_stmt(false)?;
                self.expect(Tok::Semi)?;
                let span = start.to(self.tokens[self.pos - 1].span);
                return Ok(Stmt { id, span, kind: s.kind });
            }
        };
        let span = start.to(self.tokens[self.pos - 1].span);
        Ok(Stmt { id, span, kind })
    }

    /// An assignment or expression statement *without* the trailing `;`
    /// (used in `for` headers). When `consume_semi` is set the terminating
    /// semicolon is consumed here (used for the `for` init clause).
    fn simple_stmt(&mut self, consume_semi: bool) -> Result<Stmt, LangError> {
        let id = self.ids.fresh();
        let start = self.peek_span();
        let kind = if self.peek() == &Tok::Var {
            self.bump();
            let (name, _) = self.expect_ident()?;
            self.expect(Tok::Assign)?;
            let init = self.expr()?;
            StmtKind::VarDecl { name, init }
        } else {
            let e = self.expr()?;
            match self.peek() {
                Tok::Assign | Tok::PlusAssign | Tok::MinusAssign | Tok::StarAssign => {
                    let op = match self.bump().tok {
                        Tok::Assign => AssignOp::Set,
                        Tok::PlusAssign => AssignOp::Add,
                        Tok::MinusAssign => AssignOp::Sub,
                        Tok::StarAssign => AssignOp::Mul,
                        _ => unreachable!(),
                    };
                    let target = self.expr_to_lvalue(e)?;
                    let value = self.expr()?;
                    StmtKind::Assign { target, op, value }
                }
                _ => StmtKind::Expr(e),
            }
        };
        if consume_semi {
            self.expect(Tok::Semi)?;
        }
        let span = start.to(self.tokens[self.pos - 1].span);
        Ok(Stmt { id, span, kind })
    }

    fn expr_to_lvalue(&mut self, e: Expr) -> Result<LValue, LangError> {
        let span = e.span;
        let kind = match e.kind {
            ExprKind::Var(name) => LValueKind::Var(name),
            ExprKind::Field { base, field } => LValueKind::Field { base: *base, field },
            ExprKind::Index { base, index } => LValueKind::Index { base: *base, index: *index },
            _ => {
                return Err(LangError::parse(
                    span.line,
                    "invalid assignment target".into(),
                ))
            }
        };
        Ok(LValue { span, kind })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.nested(|p| p.binary(0))
    }

    /// A binary operator's precedence, loosest 0, and the operator. All
    /// are left-associative.
    fn binary_op(tok: &Tok) -> Option<(u8, BinOp)> {
        Some(match tok {
            Tok::OrOr => (0, BinOp::Or),
            Tok::AndAnd => (1, BinOp::And),
            Tok::EqEq => (2, BinOp::Eq),
            Tok::NotEq => (2, BinOp::Ne),
            Tok::Le => (2, BinOp::Le),
            Tok::Lt => (2, BinOp::Lt),
            Tok::Ge => (2, BinOp::Ge),
            Tok::Gt => (2, BinOp::Gt),
            Tok::Plus => (3, BinOp::Add),
            Tok::Minus => (3, BinOp::Sub),
            Tok::Star => (4, BinOp::Mul),
            Tok::Slash => (4, BinOp::Div),
            Tok::Percent => (4, BinOp::Rem),
            _ => return None,
        })
    }

    /// Operands joined by binary operators of precedence `min_prec` or
    /// tighter, folded to the left.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        let mut height = self.height;
        while let Some((prec, op)) = Self::binary_op(self.peek()).filter(|&(prec, _)| prec >= min_prec) {
            let at = self.bump().span;
            let rhs = self.binary(prec + 1)?;
            height = 1 + height.max(self.height);
            self.check_height(height, at)?;
            let id = self.ids.fresh();
            let span = lhs.span.to(rhs.span);
            lhs = Expr { id, span, kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) } };
        }
        self.height = height;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.peek_span();
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Not => Some(UnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.nested(Self::unary_expr)?;
            self.height += 1;
            let id = self.ids.fresh();
            let span = start.to(inner.span);
            return Ok(Expr { id, span, kind: ExprKind::Unary { op, expr: Box::new(inner) } });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, LangError> {
        let mut e = self.primary_expr()?;
        let mut height = self.height;
        loop {
            let at = self.peek_span();
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let (name, nspan) = self.expect_ident()?;
                    if self.peek() == &Tok::LParen {
                        let args = self.arg_list()?;
                        height = 1 + height.max(self.height);
                        self.check_height(height, at)?;
                        let id = self.ids.fresh();
                        let span = e.span.to(self.tokens[self.pos - 1].span);
                        e = Expr {
                            id,
                            span,
                            kind: ExprKind::MethodCall { base: Box::new(e), method: name, args },
                        };
                    } else {
                        height += 1;
                        self.check_height(height, at)?;
                        let id = self.ids.fresh();
                        let span = e.span.to(nspan);
                        e = Expr { id, span, kind: ExprKind::Field { base: Box::new(e), field: name } };
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    height = 1 + height.max(self.height);
                    self.check_height(height, at)?;
                    let end = self.expect(Tok::RBracket)?.span;
                    let id = self.ids.fresh();
                    let span = e.span.to(end);
                    e = Expr {
                        id,
                        span,
                        kind: ExprKind::Index { base: Box::new(e), index: Box::new(index) },
                    };
                }
                _ => {
                    self.height = height;
                    return Ok(e);
                }
            }
        }
    }

    fn arg_list(&mut self) -> Result<Vec<Expr>, LangError> {
        self.expect(Tok::LParen)?;
        self.comma_list(Tok::RParen)
    }

    /// Expressions separated by commas up to `close`, which is consumed;
    /// `height` is left at the tallest one's (0 for none).
    fn comma_list(&mut self, close: Tok) -> Result<Vec<Expr>, LangError> {
        let mut items = Vec::new();
        let mut height = 0;
        if self.peek() != &close {
            loop {
                items.push(self.expr()?);
                height = height.max(self.height);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(close)?;
        self.height = height;
        Ok(items)
    }

    fn primary_expr(&mut self) -> Result<Expr, LangError> {
        let start = self.peek_span();
        let id = self.ids.fresh();
        let kind = match self.peek() {
            &Tok::Int(v) => {
                self.bump();
                ExprKind::Int(v)
            }
            &Tok::Float(v) => {
                self.bump();
                ExprKind::Float(v)
            }
            Tok::Str(_) => ExprKind::Str(self.bump_text()),
            Tok::True => {
                self.bump();
                ExprKind::Bool(true)
            }
            Tok::False => {
                self.bump();
                ExprKind::Bool(false)
            }
            Tok::Null => {
                self.bump();
                ExprKind::Null
            }
            Tok::New => {
                self.bump();
                let (class, _) = self.expect_ident()?;
                let args = self.arg_list()?;
                ExprKind::New { class, args }
            }
            Tok::LBracket => {
                self.bump();
                ExprKind::ListLit(self.comma_list(Tok::RBracket)?)
            }
            Tok::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(Tok::RParen)?;
                // keep the inner node; parens are purely syntactic
                return Ok(inner);
            }
            Tok::Ident(_) => {
                let name = self.bump_text();
                if self.peek() == &Tok::LParen {
                    let args = self.arg_list()?;
                    ExprKind::Call { callee: name, args }
                } else {
                    ExprKind::Var(name)
                }
            }
            other => {
                return Err(LangError::parse(
                    self.line(),
                    format!("expected expression, found `{other}`"),
                ))
            }
        };
        self.height = match kind {
            ExprKind::New { .. } | ExprKind::Call { .. } | ExprKind::ListLit(_) => 1 + self.height,
            _ => 1,
        };
        let span = start.to(self.tokens[self.pos - 1].span);
        Ok(Expr { id, span, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_empty_function() {
        let p = parse("fn main() { }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert!(p.funcs[0].body.stmts.is_empty());
    }

    #[test]
    fn parses_class_with_fields_and_methods() {
        let src = "class Image { var width = 0; var pixels = []; fn area() { return this.width; } }";
        let p = parse(src).unwrap();
        let c = &p.classes[0];
        assert_eq!(c.name, "Image");
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.methods.len(), 1);
        assert_eq!(c.methods[0].name, "area");
    }

    #[test]
    fn parses_operator_precedence() {
        let p = parse("fn f() { var x = 1 + 2 * 3; }").unwrap();
        let StmtKind::VarDecl { init, .. } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected var decl");
        };
        let ExprKind::Binary { op: BinOp::Add, rhs, .. } = &init.kind else {
            panic!("expected + at top");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_foreach_and_method_calls() {
        let src = "fn f(xs) { foreach (x in xs.items) { var y = filter.apply(x); out.add(y); } }";
        let p = parse(src).unwrap();
        let StmtKind::Foreach { var, body, .. } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected foreach");
        };
        assert_eq!(var, "x");
        assert_eq!(body.stmts.len(), 2);
    }

    #[test]
    fn parses_for_loop_with_all_clauses() {
        let p = parse("fn f() { for (var i = 0; i < 10; i = i + 1) { work(i); } }").unwrap();
        let StmtKind::For { init, cond, update, .. } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected for");
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(update.is_some());
    }

    #[test]
    fn parses_for_loop_with_empty_clauses() {
        let p = parse("fn f() { for (;;) { break; } }").unwrap();
        let StmtKind::For { init, cond, update, .. } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected for");
        };
        assert!(init.is_none() && cond.is_none() && update.is_none());
    }

    #[test]
    fn parses_compound_assignment() {
        let p = parse("fn f() { x += 1; a.b -= 2; c[0] *= 3; }").unwrap();
        let kinds: Vec<AssignOp> = p.funcs[0]
            .body
            .stmts
            .iter()
            .map(|s| match &s.kind {
                StmtKind::Assign { op, .. } => *op,
                _ => panic!("expected assignment"),
            })
            .collect();
        assert_eq!(kinds, vec![AssignOp::Add, AssignOp::Sub, AssignOp::Mul]);
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse("fn f(x) { if (x < 0) { } else if (x == 0) { } else { } }").unwrap();
        let StmtKind::If { else_blk, .. } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected if");
        };
        let inner = &else_blk.as_ref().unwrap().stmts[0];
        assert!(matches!(inner.kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_region_statement() {
        let src = "fn f() {\n#region A:\nvar x = 1;\n#endregion\n}";
        let p = parse(src).unwrap();
        let StmtKind::Region { label, body } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected region");
        };
        assert_eq!(label, "A:");
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn parses_nested_regions() {
        let src = "fn f() {\n#region TADL: A => B\n#region A:\nvar x = 1;\n#endregion\n#region B:\nvar y = x;\n#endregion\n#endregion\n}";
        let p = parse(src).unwrap();
        let StmtKind::Region { label, body } = &p.funcs[0].body.stmts[0].kind else {
            panic!("expected region");
        };
        assert_eq!(label, "TADL: A => B");
        assert_eq!(body.stmts.len(), 2);
        assert!(matches!(&body.stmts[0].kind, StmtKind::Region { label, .. } if label == "A:"));
    }

    #[test]
    fn rejects_bad_assignment_target() {
        assert!(parse("fn f() { 1 + 2 = 3; }").is_err());
    }

    #[test]
    fn rejects_unclosed_block() {
        assert!(parse("fn f() { var x = 1;").is_err());
    }

    #[test]
    fn rejects_unclosed_region() {
        assert!(parse("fn f() {\n#region A:\nvar x = 1;\n}").is_err());
    }

    #[test]
    fn node_ids_are_unique() {
        let src = "fn f() { var x = 1; if (x > 0) { x = x + 1; } while (x < 10) { x += 1; } }";
        let p = parse(src).unwrap();
        let mut seen = std::collections::HashSet::new();
        p.for_each_stmt(&mut |s| {
            assert!(seen.insert(s.id), "duplicate stmt id {:?}", s.id);
        });
    }

    #[test]
    fn spans_cover_statement_text() {
        let src = "fn f() { var x = 1; out.add(x); }";
        let p = parse(src).unwrap();
        let texts: Vec<&str> = p.funcs[0]
            .body
            .stmts
            .iter()
            .map(|s| s.span.text(src))
            .collect();
        assert_eq!(texts, vec!["var x = 1;", "out.add(x);"]);
    }

    #[test]
    fn parses_new_and_list_literals() {
        let p = parse("fn f() { var s = new Stream([1, 2, 3]); }").unwrap();
        let StmtKind::VarDecl { init, .. } = &p.funcs[0].body.stmts[0].kind else {
            panic!();
        };
        let ExprKind::New { class, args } = &init.kind else { panic!() };
        assert_eq!(class, "Stream");
        assert!(matches!(&args[0].kind, ExprKind::ListLit(items) if items.len() == 3));
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let too_deep = |src: &str| {
            let err = parse(src).unwrap_err();
            assert_eq!(err.phase, crate::error::Phase::Parse);
            (err.line, err.message)
        };
        let message = |column: usize| format!("nesting deeper than {MAX_DEPTH} levels at column {column}");
        // The body block, the statement and its expression are three levels.
        let parens = |n: usize| format!("fn main() {{\n    return {}1{};\n}}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_DEPTH - 3)).is_ok());
        assert_eq!(too_deep(&parens(MAX_DEPTH - 2)), (2, message(12 + MAX_DEPTH - 2)));
        // A chain nests its first operand one level deeper per link.
        let chain = |n: usize| format!("fn main() {{\n    return 1{};\n}}", " + 1".repeat(n));
        assert!(parse(&chain(MAX_DEPTH - 3)).is_ok());
        assert_eq!(too_deep(&chain(MAX_DEPTH - 2)), (2, message(12 + 4 * (MAX_DEPTH - 3) + 2)));
        let fields = |n: usize| format!("fn main() {{\n    return a{};\n}}", ".f".repeat(n));
        assert!(parse(&fields(MAX_DEPTH - 3)).is_ok());
        assert_eq!(too_deep(&fields(MAX_DEPTH - 2)), (2, message(12 + 2 * (MAX_DEPTH - 3) + 1)));
        // An `if` is a statement and a block.
        let ifs = |n: usize| format!("fn main() {{\n{}{}\n}}", "if (true) { ".repeat(n), "} ".repeat(n));
        assert!(parse(&ifs(MAX_DEPTH / 2 - 1)).is_ok());
        assert_eq!(too_deep(&ifs(MAX_DEPTH / 2)), (2, message(12 * (MAX_DEPTH / 2 - 1) + 5)));
        // So is each `else if` link: a ladder of 62 links parses, 63 do not.
        let ladder = |n: usize| format!("fn main() {{\nif (true) {{ }}{}\n}}", " else if (true) { }".repeat(n));
        assert!(parse(&ladder(MAX_DEPTH / 2 - 2)).is_ok());
        assert_eq!(too_deep(&ladder(MAX_DEPTH / 2 - 1)), (2, message(13 + 19 * (MAX_DEPTH / 2 - 2) + 11)));
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_a_small_stack() {
        let src = format!("fn main() {{ return {}1{}; }}", "(".repeat(100_000), ")".repeat(100_000));
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&src).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(err.message.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn parses_index_chains() {
        let p = parse("fn f() { m[0][1] = m[1][0]; }").unwrap();
        assert!(matches!(
            &p.funcs[0].body.stmts[0].kind,
            StmtKind::Assign { target: LValue { kind: LValueKind::Index { .. }, .. }, .. }
        ));
    }
}
