//! Recursive-descent parser for the IDL subset.

use crate::ast::*;
use crate::lexer::{LexError, Lexer, Token, TokenKind};

/// A parse failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdlParseError {
    /// Explanation.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
}

impl std::fmt::Display for IdlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IDL parse error at line {}: {}", self.line, self.msg)
    }
}
impl std::error::Error for IdlParseError {}

impl From<LexError> for IdlParseError {
    fn from(e: LexError) -> Self {
        IdlParseError { msg: e.msg, line: e.line }
    }
}

/// How many modules and `sequence<`s may enclose one another. Parsing
/// recurses once per level, so deeper input is refused rather than
/// allowed to exhaust the stack; real IDL nests a few levels deep.
pub const MAX_DEPTH: usize = 256;

/// Parse a compilation unit.
pub fn parse(src: &str) -> Result<Spec, IdlParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut defs = Vec::new();
    while !p.at_eof() {
        defs.push(p.definition()?);
    }
    Ok(Spec { defs })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Modules and sequences open around the current token.
    depth: usize,
}

impl Parser {
    fn cur(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn at_eof(&self) -> bool {
        self.cur().kind == TokenKind::Eof
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, IdlParseError> {
        Err(IdlParseError { msg: msg.into(), line: self.cur().line })
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.cur().kind.clone();
        if !self.at_eof() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.cur().kind == kind {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), IdlParseError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.cur().kind))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(&self.cur().kind, TokenKind::Keyword(k) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, IdlParseError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => self.err(format!("expected {what} name, found {other:?}")),
        }
    }

    /// Parse with `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, IdlParseError>,
    ) -> Result<T, IdlParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("modules and sequences nest deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn scoped_name(&mut self) -> Result<ScopedName, IdlParseError> {
        let mut parts = vec![self.ident("scoped")?];
        while self.eat(&TokenKind::Scope) {
            parts.push(self.ident("scoped")?);
        }
        Ok(ScopedName(parts))
    }

    fn definition(&mut self) -> Result<Definition, IdlParseError> {
        let def = if self.eat_kw("module") {
            Definition::Module(self.nested(Self::module)?)
        } else if self.eat_kw("interface") {
            Definition::Interface(self.interface()?)
        } else if self.eat_kw("struct") {
            let name = self.ident("struct")?;
            let fields = self.field_block()?;
            Definition::Struct(StructDecl { name, fields })
        } else if self.eat_kw("exception") {
            let name = self.ident("exception")?;
            let fields = self.field_block()?;
            Definition::Exception(ExceptionDecl { name, fields })
        } else if self.eat_kw("eventtype") {
            let name = self.ident("eventtype")?;
            let fields = self.field_block()?;
            Definition::Event(EventDecl { name, fields })
        } else if self.eat_kw("enum") {
            let name = self.ident("enum")?;
            self.expect(TokenKind::LBrace, "'{'")?;
            let mut items = Vec::new();
            loop {
                items.push(self.ident("enumerator")?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBrace, "'}'")?;
            Definition::Enum(EnumDecl { name, items })
        } else if self.eat_kw("typedef") {
            let ty = self.type_ref()?;
            let name = self.ident("typedef")?;
            Definition::Typedef(TypedefDecl { ty, name })
        } else {
            return self.err(format!("expected a definition, found {:?}", self.cur().kind));
        };
        self.expect(TokenKind::Semi, "';' after definition")?;
        Ok(def)
    }

    fn module(&mut self) -> Result<ModuleDecl, IdlParseError> {
        let name = self.ident("module")?;
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut defs = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.at_eof() {
                return self.err("unterminated module body");
            }
            defs.push(self.definition()?);
        }
        Ok(ModuleDecl { name, defs })
    }

    fn field_block(&mut self) -> Result<Vec<Field>, IdlParseError> {
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.at_eof() {
                return self.err("unterminated block");
            }
            let ty = self.type_ref()?;
            let name = self.ident("field")?;
            self.expect(TokenKind::Semi, "';' after field")?;
            fields.push(Field { ty, name });
        }
        Ok(fields)
    }

    fn interface(&mut self) -> Result<InterfaceDecl, IdlParseError> {
        let name = self.ident("interface")?;
        let mut bases = Vec::new();
        if self.eat(&TokenKind::Colon) {
            loop {
                bases.push(self.scoped_name()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut ops = Vec::new();
        let mut attrs = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.at_eof() {
                return self.err("unterminated interface body");
            }
            if self.eat_kw("readonly") {
                if !self.eat_kw("attribute") {
                    return self.err("'readonly' must be followed by 'attribute'");
                }
                let ty = self.type_ref()?;
                let name = self.ident("attribute")?;
                self.expect(TokenKind::Semi, "';'")?;
                attrs.push(AttrDecl { readonly: true, ty, name });
            } else if self.eat_kw("attribute") {
                let ty = self.type_ref()?;
                let name = self.ident("attribute")?;
                self.expect(TokenKind::Semi, "';'")?;
                attrs.push(AttrDecl { readonly: false, ty, name });
            } else {
                ops.push(self.operation()?);
            }
        }
        Ok(InterfaceDecl { name, bases, ops, attrs })
    }

    fn operation(&mut self) -> Result<OpDecl, IdlParseError> {
        let oneway = self.eat_kw("oneway");
        let ret = self.type_ref()?;
        let name = self.ident("operation")?;
        self.expect(TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let mode = if self.eat_kw("in") {
                    ParamMode::In
                } else if self.eat_kw("out") {
                    ParamMode::Out
                } else if self.eat_kw("inout") {
                    ParamMode::InOut
                } else {
                    return self.err("parameter must start with in/out/inout");
                };
                let ty = self.type_ref()?;
                let pname = self.ident("parameter")?;
                params.push(Param { mode, ty, name: pname });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "')'")?;
        }
        let mut raises = Vec::new();
        if self.eat_kw("raises") {
            self.expect(TokenKind::LParen, "'(' after raises")?;
            loop {
                raises.push(self.scoped_name()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen, "')'")?;
        }
        self.expect(TokenKind::Semi, "';' after operation")?;
        Ok(OpDecl { oneway, ret, name, params, raises })
    }

    fn type_ref(&mut self) -> Result<TypeRef, IdlParseError> {
        if self.eat_kw("void") {
            Ok(TypeRef::Void)
        } else if self.eat_kw("boolean") {
            Ok(TypeRef::Boolean)
        } else if self.eat_kw("octet") {
            Ok(TypeRef::Octet)
        } else if self.eat_kw("char") {
            Ok(TypeRef::Char)
        } else if self.eat_kw("float") {
            Ok(TypeRef::Float)
        } else if self.eat_kw("double") {
            Ok(TypeRef::Double)
        } else if self.eat_kw("string") {
            Ok(TypeRef::String)
        } else if self.eat_kw("unsigned") {
            if self.eat_kw("short") {
                Ok(TypeRef::Short { unsigned: true })
            } else if self.eat_kw("long") {
                if self.eat_kw("long") {
                    Ok(TypeRef::LongLong { unsigned: true })
                } else {
                    Ok(TypeRef::Long { unsigned: true })
                }
            } else {
                self.err("'unsigned' must be followed by short/long")
            }
        } else if self.eat_kw("short") {
            Ok(TypeRef::Short { unsigned: false })
        } else if self.eat_kw("long") {
            if self.eat_kw("long") {
                Ok(TypeRef::LongLong { unsigned: false })
            } else {
                Ok(TypeRef::Long { unsigned: false })
            }
        } else if self.eat_kw("sequence") {
            self.nested(|p| {
                p.expect(TokenKind::Lt, "'<'")?;
                let inner = p.type_ref()?;
                p.expect(TokenKind::Gt, "'>'")?;
                Ok(TypeRef::Sequence(Box::new(inner)))
            })
        } else if matches!(self.cur().kind, TokenKind::Ident(_)) {
            Ok(TypeRef::Named(self.scoped_name()?))
        } else {
            self.err(format!("expected a type, found {:?}", self.cur().kind))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_unit_parses() {
        let spec = parse(
            r#"
            // The CSCW display service (Fig. 2 of the paper).
            module cscw {
              typedef sequence<octet> Pixels;
              enum Color { red, green, blue };
              struct Rect { long x; long y; long w; long h; };
              exception OutOfBounds { string what; };
              eventtype Damage { Rect area; };
              interface Display {
                readonly attribute long width;
                attribute string title;
                void draw(in Rect area, in Pixels data) raises (OutOfBounds);
                oneway void invalidate(in Rect area);
              };
              interface SmartDisplay : Display {
                boolean batch(in sequence<Rect> areas);
              };
            };
            "#,
        )
        .unwrap();
        assert_eq!(spec.defs.len(), 1);
        let Definition::Module(m) = &spec.defs[0] else { panic!("module") };
        assert_eq!(m.defs.len(), 7);
        let Definition::Interface(d) = &m.defs[5] else { panic!("interface") };
        assert_eq!(d.name, "Display");
        assert_eq!(d.ops.len(), 2);
        assert_eq!(d.attrs.len(), 2);
        assert!(d.ops[1].oneway);
        assert_eq!(d.ops[0].raises.len(), 1);
        let Definition::Interface(sd) = &m.defs[6] else { panic!("interface") };
        assert_eq!(sd.bases[0].to_string(), "Display");
    }

    #[test]
    fn scoped_names() {
        let spec = parse("interface I { void f(in a::b::C x); };").unwrap();
        let Definition::Interface(i) = &spec.defs[0] else { panic!() };
        let TypeRef::Named(n) = &i.ops[0].params[0].ty else { panic!() };
        assert_eq!(n.to_string(), "a::b::C");
    }

    #[test]
    fn unsigned_types() {
        let spec =
            parse("struct S { unsigned short a; unsigned long b; unsigned long long c; long long d; };")
                .unwrap();
        let Definition::Struct(s) = &spec.defs[0] else { panic!() };
        assert_eq!(s.fields[0].ty, TypeRef::Short { unsigned: true });
        assert_eq!(s.fields[1].ty, TypeRef::Long { unsigned: true });
        assert_eq!(s.fields[2].ty, TypeRef::LongLong { unsigned: true });
        assert_eq!(s.fields[3].ty, TypeRef::LongLong { unsigned: false });
    }

    #[test]
    fn error_reporting() {
        let e = parse("interface {").unwrap_err();
        assert!(e.msg.contains("interface name"), "{e}");
        assert!(parse("module m { interface I {} }").is_err()); // missing ';'
        assert!(parse("interface I { void f(long x); };").is_err()); // missing mode
        assert!(parse("struct S { unsigned float x; };").is_err());
        assert!(parse("bogus").is_err());
    }

    fn modules(depth: usize) -> String {
        "module m {".repeat(depth) + &"};".repeat(depth)
    }

    fn sequences(depth: usize) -> String {
        format!("typedef {}long{} T;", "sequence<".repeat(depth), ">".repeat(depth))
    }

    /// Parsing recurses per module and per `sequence<`: input at the
    /// limit compiles, one level more is refused, and 100 000 levels
    /// (which once overflowed the stack and aborted the process) are an
    /// error.
    #[test]
    fn nesting_depth_is_bounded() {
        for nest in [modules, sequences] {
            crate::compile(&nest(MAX_DEPTH)).unwrap();
            let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.msg.contains("nest deeper"), "{e}");
            assert!(crate::compile(&nest(100_000)).is_err());
        }
    }

    #[test]
    fn empty_interface_and_params() {
        let spec = parse("interface Empty {};").unwrap();
        let Definition::Interface(i) = &spec.defs[0] else { panic!() };
        assert!(i.ops.is_empty());
        let spec2 = parse("interface I { void nop(); };").unwrap();
        let Definition::Interface(i2) = &spec2.defs[0] else { panic!() };
        assert!(i2.ops[0].params.is_empty());
    }
}
