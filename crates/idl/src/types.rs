//! Type checking and the interface metadata repository.
//!
//! [`Repository::build`] walks a parsed [`Spec`], resolves every named
//! type, enforces the CORBA rules the subset needs (no duplicate names per
//! scope, no inheritance cycles, `oneway` constraints, `raises` must name
//! exceptions) and produces flattened per-interface operation tables under
//! CORBA repository ids (`IDL:scope/Name:1.0`).

use crate::ast::*;
use crate::parser::IdlParseError;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Compilation failure: parse error or semantic error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// Lex/parse failure.
    Parse(IdlParseError),
    /// Semantic failure with a message naming the offending item.
    Semantic(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Semantic(m) => write!(f, "IDL semantic error: {m}"),
        }
    }
}
impl std::error::Error for CompileError {}

fn sem<T>(msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError::Semantic(msg.into()))
}

/// A fully resolved type: every name replaced by a repository id, every
/// typedef expanded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResolvedType {
    /// `void`.
    Void,
    /// `boolean`.
    Boolean,
    /// `octet`.
    Octet,
    /// `char`.
    Char,
    /// 16-bit integer.
    Short {
        /// Unsigned?
        unsigned: bool,
    },
    /// 32-bit integer.
    Long {
        /// Unsigned?
        unsigned: bool,
    },
    /// 64-bit integer.
    LongLong {
        /// Unsigned?
        unsigned: bool,
    },
    /// 32-bit float.
    Float,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    String,
    /// Homogeneous sequence.
    Sequence(Box<ResolvedType>),
    /// Struct by repository id.
    Struct(String),
    /// Enum by repository id.
    Enum(String),
    /// Object reference typed by an interface repository id.
    Object(String),
}

/// A resolved operation parameter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParamMeta {
    /// Passing mode.
    pub mode: ParamMode,
    /// Resolved type.
    pub ty: ResolvedType,
    /// Name.
    pub name: String,
}

/// A resolved operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpMeta {
    /// Operation name (unique within the interface, bases included).
    pub name: String,
    /// Fire-and-forget?
    pub oneway: bool,
    /// Resolved return type.
    pub ret: ResolvedType,
    /// Parameters.
    pub params: Vec<ParamMeta>,
    /// Repository ids of declared exceptions.
    pub raises: Vec<String>,
    /// Repository id of the interface that declared this operation
    /// (differs from the owning interface for inherited operations).
    pub declared_in: String,
}

/// A resolved struct/exception/event field.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldMeta {
    /// Resolved type.
    pub ty: ResolvedType,
    /// Name.
    pub name: String,
}

/// A resolved interface: flattened operation table plus base list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterfaceMeta {
    /// Repository id, e.g. `IDL:cscw/Display:1.0`.
    pub id: String,
    /// Unqualified name.
    pub name: String,
    /// Direct base interface ids.
    pub bases: Vec<String>,
    /// All operations: inherited first (base order), then own. Attribute
    /// accessors appear as `_get_name` / `_set_name`.
    pub ops: Vec<OpMeta>,
}

impl InterfaceMeta {
    /// Find an operation by name.
    pub fn op(&self, name: &str) -> Option<&OpMeta> {
        self.ops.iter().find(|o| o.name == name)
    }
}

/// A resolved event type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventMeta {
    /// Repository id, e.g. `IDL:cscw/Damage:1.0`.
    pub id: String,
    /// Unqualified name.
    pub name: String,
    /// Payload fields.
    pub fields: Vec<FieldMeta>,
}

/// A resolved struct type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructMeta {
    /// Repository id.
    pub id: String,
    /// Unqualified name.
    pub name: String,
    /// Fields.
    pub fields: Vec<FieldMeta>,
}

/// A resolved enum type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnumMeta {
    /// Repository id.
    pub id: String,
    /// Unqualified name.
    pub name: String,
    /// Enumerators.
    pub items: Vec<String>,
}

/// A resolved exception type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExceptionMeta {
    /// Repository id.
    pub id: String,
    /// Unqualified name.
    pub name: String,
    /// Members.
    pub fields: Vec<FieldMeta>,
}

/// What kind of thing a scoped name denotes (pre-resolution index).
#[derive(Clone, Debug)]
enum RawEntry {
    Interface(InterfaceDecl),
    Struct(StructDecl),
    Enum(EnumDecl),
    Typedef(TypedefDecl),
    Exception(ExceptionDecl),
    Event(EventDecl),
}

/// The compiled metadata repository for one or more IDL units.
#[derive(Clone, Debug, Default)]
pub struct Repository {
    interfaces: BTreeMap<String, InterfaceMeta>,
    events: BTreeMap<String, EventMeta>,
    structs: BTreeMap<String, StructMeta>,
    enums: BTreeMap<String, EnumMeta>,
    exceptions: BTreeMap<String, ExceptionMeta>,
}

/// Compose a repository id from a scope path and a name.
pub fn repo_id(scope: &[String], name: &str) -> String {
    if scope.is_empty() {
        format!("IDL:{name}:1.0")
    } else {
        format!("IDL:{}/{name}:1.0", scope.join("/"))
    }
}

impl Repository {
    /// Type-check `spec` and build the repository.
    pub fn build(spec: &Spec) -> Result<Self, CompileError> {
        // Pass 1: index every definition by (scope, name).
        let mut index: BTreeMap<(Vec<String>, String), RawEntry> = BTreeMap::new();
        collect(&spec.defs, &mut Vec::new(), &mut index)?;

        let resolver = Resolver { index: &index };

        let mut repo = Repository::default();

        // Pass 2: resolve non-interface types first (interfaces reference
        // them), then interfaces (which may reference each other freely).
        for ((scope, name), entry) in &index {
            let id = repo_id(scope, name);
            match entry {
                RawEntry::Struct(s) => {
                    let fields = resolver.fields(&s.fields, scope, &format!("struct {name}"))?;
                    repo.structs.insert(
                        id.clone(),
                        StructMeta { id: id.clone(), name: name.clone(), fields },
                    );
                }
                RawEntry::Enum(e) => {
                    let mut seen = BTreeSet::new();
                    for it in &e.items {
                        if !seen.insert(it) {
                            return sem(format!("enum {name}: duplicate enumerator '{it}'"));
                        }
                    }
                    repo.enums.insert(
                        id.clone(),
                        EnumMeta { id: id.clone(), name: name.clone(), items: e.items.clone() },
                    );
                }
                RawEntry::Exception(x) => {
                    let fields =
                        resolver.fields(&x.fields, scope, &format!("exception {name}"))?;
                    repo.exceptions.insert(
                        id.clone(),
                        ExceptionMeta { id: id.clone(), name: name.clone(), fields },
                    );
                }
                RawEntry::Event(ev) => {
                    let fields =
                        resolver.fields(&ev.fields, scope, &format!("eventtype {name}"))?;
                    repo.events.insert(
                        id.clone(),
                        EventMeta { id: id.clone(), name: name.clone(), fields },
                    );
                }
                RawEntry::Interface(_) | RawEntry::Typedef(_) => {}
            }
        }

        // Pass 3: interfaces, flattening inheritance (DFS with cycle check).
        let mut done: BTreeMap<String, InterfaceMeta> = BTreeMap::new();
        for ((scope, name), entry) in &index {
            if let RawEntry::Interface(decl) = entry {
                flatten_interface(decl, scope, name, &resolver, &mut Vec::new(), &mut done)?;
            }
        }
        repo.interfaces = done;

        Ok(repo)
    }

    /// Merge another repository into this one (multi-file compilation).
    ///
    /// Colliding ids must be identical definitions; otherwise an error.
    pub fn merge(&mut self, other: Repository) -> Result<(), CompileError> {
        merge_map(&mut self.interfaces, other.interfaces, "interface")?;
        merge_map(&mut self.events, other.events, "eventtype")?;
        merge_map(&mut self.structs, other.structs, "struct")?;
        merge_map(&mut self.enums, other.enums, "enum")?;
        merge_map(&mut self.exceptions, other.exceptions, "exception")?;
        Ok(())
    }

    /// Look up an interface by repository id.
    pub fn interface(&self, id: &str) -> Option<&InterfaceMeta> {
        self.interfaces.get(id)
    }

    /// Look up an event type by repository id.
    pub fn event(&self, id: &str) -> Option<&EventMeta> {
        self.events.get(id)
    }

    /// Look up a struct by repository id.
    pub fn struct_(&self, id: &str) -> Option<&StructMeta> {
        self.structs.get(id)
    }

    /// Look up an enum by repository id.
    pub fn enum_(&self, id: &str) -> Option<&EnumMeta> {
        self.enums.get(id)
    }

    /// Look up an exception by repository id.
    pub fn exception(&self, id: &str) -> Option<&ExceptionMeta> {
        self.exceptions.get(id)
    }

    /// Does `derived` equal or transitively inherit from `base`?
    pub fn is_a(&self, derived: &str, base: &str) -> bool {
        if derived == base {
            return true;
        }
        let Some(meta) = self.interfaces.get(derived) else { return false };
        meta.bases.iter().any(|b| self.is_a(b, base))
    }
}

fn merge_map<V: PartialEq + std::fmt::Debug>(
    dst: &mut BTreeMap<String, V>,
    src: BTreeMap<String, V>,
    what: &str,
) -> Result<(), CompileError> {
    for (k, v) in src {
        match dst.entry(k) {
            Entry::Vacant(e) => {
                e.insert(v);
            }
            Entry::Occupied(e) => {
                if *e.get() != v {
                    return sem(format!("conflicting {what} definition for '{}'", e.key()));
                }
            }
        }
    }
    Ok(())
}

fn collect(
    defs: &[Definition],
    scope: &mut Vec<String>,
    index: &mut BTreeMap<(Vec<String>, String), RawEntry>,
) -> Result<(), CompileError> {
    for def in defs {
        if let Definition::Module(m) = def {
            scope.push(m.name.clone());
            collect(&m.defs, scope, index)?;
            scope.pop();
            continue;
        }
        let name = def.name().to_owned();
        let entry = match def {
            Definition::Interface(d) => RawEntry::Interface(d.clone()),
            Definition::Struct(d) => RawEntry::Struct(d.clone()),
            Definition::Enum(d) => RawEntry::Enum(d.clone()),
            Definition::Typedef(d) => RawEntry::Typedef(d.clone()),
            Definition::Exception(d) => RawEntry::Exception(d.clone()),
            Definition::Event(d) => RawEntry::Event(d.clone()),
            Definition::Module(_) => unreachable!(),
        };
        let key = (scope.clone(), name.clone());
        if index.insert(key, entry).is_some() {
            return sem(format!(
                "duplicate definition of '{name}' in scope '{}'",
                scope.join("::")
            ));
        }
    }
    Ok(())
}

struct Resolver<'a> {
    index: &'a BTreeMap<(Vec<String>, String), RawEntry>,
}

impl<'a> Resolver<'a> {
    /// Find a scoped name starting from `scope` and walking outward
    /// (simplified CORBA name lookup).
    fn lookup(&self, name: &ScopedName, scope: &[String]) -> Option<(Vec<String>, &RawEntry)> {
        let mut prefix = scope.to_vec();
        loop {
            // Try prefix + name.0 — the first n-1 segments extend the
            // scope, the last is the definition name.
            let mut full = prefix.clone();
            full.extend_from_slice(&name.0[..name.0.len() - 1]);
            let key = (full.clone(), name.leaf().to_owned());
            if let Some(e) = self.index.get(&key) {
                return Some((full, e));
            }
            prefix.pop()?;
        }
    }

    fn resolve(
        &self,
        ty: &TypeRef,
        scope: &[String],
        what: &str,
    ) -> Result<ResolvedType, CompileError> {
        Ok(match ty {
            TypeRef::Void => ResolvedType::Void,
            TypeRef::Boolean => ResolvedType::Boolean,
            TypeRef::Octet => ResolvedType::Octet,
            TypeRef::Char => ResolvedType::Char,
            TypeRef::Short { unsigned } => ResolvedType::Short { unsigned: *unsigned },
            TypeRef::Long { unsigned } => ResolvedType::Long { unsigned: *unsigned },
            TypeRef::LongLong { unsigned } => ResolvedType::LongLong { unsigned: *unsigned },
            TypeRef::Float => ResolvedType::Float,
            TypeRef::Double => ResolvedType::Double,
            TypeRef::String => ResolvedType::String,
            TypeRef::Sequence(inner) => {
                let element = self.resolve(inner, scope, what)?;
                if element == ResolvedType::Void {
                    return sem(format!("{what}: sequence element cannot be void"));
                }
                ResolvedType::Sequence(Box::new(element))
            }
            TypeRef::Named(n) => {
                let Some((found_scope, entry)) = self.lookup(n, scope) else {
                    return sem(format!("{what}: unknown type '{n}'"));
                };
                let id = repo_id(&found_scope, n.leaf());
                match entry {
                    RawEntry::Struct(_) => ResolvedType::Struct(id),
                    RawEntry::Enum(_) => ResolvedType::Enum(id),
                    RawEntry::Interface(_) => ResolvedType::Object(id),
                    RawEntry::Typedef(td) => {
                        // Expand the alias in the scope where it was found.
                        self.resolve(&td.ty, &found_scope, what)?
                    }
                    RawEntry::Exception(_) => {
                        return sem(format!("{what}: exception '{n}' used as a type"));
                    }
                    RawEntry::Event(_) => {
                        return sem(format!(
                            "{what}: eventtype '{n}' used as a data type (events travel \
                             through event ports, not operations)"
                        ));
                    }
                }
            }
        })
    }

    fn fields(
        &self,
        fields: &[Field],
        scope: &[String],
        what: &str,
    ) -> Result<Vec<FieldMeta>, CompileError> {
        let mut out = Vec::with_capacity(fields.len());
        let mut seen = BTreeSet::new();
        for f in fields {
            if !seen.insert(&f.name) {
                return sem(format!("{what}: duplicate field '{}'", f.name));
            }
            let ty = self.resolve(&f.ty, scope, what)?;
            if ty == ResolvedType::Void {
                return sem(format!("{what}: field '{}' cannot be void", f.name));
            }
            out.push(FieldMeta { ty, name: f.name.clone() });
        }
        Ok(out)
    }
}

fn flatten_interface(
    decl: &InterfaceDecl,
    scope: &[String],
    name: &str,
    resolver: &Resolver<'_>,
    in_progress: &mut Vec<String>,
    done: &mut BTreeMap<String, InterfaceMeta>,
) -> Result<InterfaceMeta, CompileError> {
    let id = repo_id(scope, name);
    if let Some(meta) = done.get(&id) {
        return Ok(meta.clone());
    }
    if in_progress.contains(&id) {
        return sem(format!("inheritance cycle involving interface '{id}'"));
    }
    in_progress.push(id.clone());

    let what = format!("interface {name}");
    let mut ops: Vec<OpMeta> = Vec::new();
    let mut base_ids = Vec::new();

    for base in &decl.bases {
        let Some((bscope, bentry)) = resolver.lookup(base, scope) else {
            return sem(format!("{what}: unknown base interface '{base}'"));
        };
        let RawEntry::Interface(bdecl) = bentry else {
            return sem(format!("{what}: base '{base}' is not an interface"));
        };
        let bmeta =
            flatten_interface(bdecl, &bscope, base.leaf(), resolver, in_progress, done)?;
        base_ids.push(bmeta.id.clone());
        for op in &bmeta.ops {
            if let Some(existing) = ops.iter().find(|o| o.name == op.name) {
                // Diamond inheritance of the *same* declaration is fine.
                if existing.declared_in != op.declared_in {
                    return sem(format!(
                        "{what}: operation '{}' inherited from both '{}' and '{}'",
                        op.name, existing.declared_in, op.declared_in
                    ));
                }
            } else {
                ops.push(op.clone());
            }
        }
    }

    // Attribute accessors, then own operations.
    let mut own: Vec<OpDecl> = Vec::new();
    for attr in &decl.attrs {
        own.push(OpDecl {
            oneway: false,
            ret: attr.ty.clone(),
            name: format!("_get_{}", attr.name),
            params: vec![],
            raises: vec![],
        });
        if !attr.readonly {
            own.push(OpDecl {
                oneway: false,
                ret: TypeRef::Void,
                name: format!("_set_{}", attr.name),
                params: vec![Param {
                    mode: ParamMode::In,
                    ty: attr.ty.clone(),
                    name: "value".into(),
                }],
                raises: vec![],
            });
        }
    }
    own.extend(decl.ops.iter().cloned());

    for op in &own {
        if ops.iter().any(|o| o.name == op.name) {
            return sem(format!("{what}: duplicate operation '{}'", op.name));
        }
        let ret = resolver.resolve(&op.ret, scope, &what)?;
        let mut params = Vec::with_capacity(op.params.len());
        let mut seen = BTreeSet::new();
        for p in &op.params {
            if !seen.insert(&p.name) {
                return sem(format!("{what}.{}: duplicate parameter '{}'", op.name, p.name));
            }
            let ty = resolver.resolve(&p.ty, scope, &what)?;
            if ty == ResolvedType::Void {
                return sem(format!("{what}.{}: parameter '{}' cannot be void", op.name, p.name));
            }
            params.push(ParamMeta { mode: p.mode, ty, name: p.name.clone() });
        }
        if op.oneway {
            if ret != ResolvedType::Void {
                return sem(format!("{what}.{}: oneway operations must return void", op.name));
            }
            if params.iter().any(|p| p.mode != ParamMode::In) {
                return sem(format!(
                    "{what}.{}: oneway operations may only have 'in' parameters",
                    op.name
                ));
            }
            if !op.raises.is_empty() {
                return sem(format!("{what}.{}: oneway operations cannot raise", op.name));
            }
        }
        let mut raises = Vec::with_capacity(op.raises.len());
        for r in &op.raises {
            let Some((rscope, rentry)) = resolver.lookup(r, scope) else {
                return sem(format!("{what}.{}: unknown exception '{r}'", op.name));
            };
            if !matches!(rentry, RawEntry::Exception(_)) {
                return sem(format!("{what}.{}: '{r}' is not an exception", op.name));
            }
            raises.push(repo_id(&rscope, r.leaf()));
        }
        ops.push(OpMeta {
            name: op.name.clone(),
            oneway: op.oneway,
            ret,
            params,
            raises,
            declared_in: id.clone(),
        });
    }

    in_progress.pop();
    let meta =
        InterfaceMeta { id: id.clone(), name: name.to_owned(), bases: base_ids, ops };
    done.insert(id, meta.clone());
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn repo_ids_and_lookup() {
        let repo = compile(
            r#"module a { module b { interface X { void f(); }; };
               interface Y {}; };"#,
        )
        .unwrap();
        assert!(repo.interface("IDL:a/b/X:1.0").is_some());
        assert!(repo.interface("IDL:a/Y:1.0").is_some());
        assert!(repo.interface("IDL:X:1.0").is_none());
    }

    #[test]
    fn inheritance_flattens_and_is_a() {
        let repo = compile(
            r#"interface A { void fa(); };
               interface B : A { void fb(); };
               interface C : B { void fc(); };"#,
        )
        .unwrap();
        let c = repo.interface("IDL:C:1.0").unwrap();
        assert_eq!(c.ops.len(), 3);
        assert_eq!(c.op("fa").unwrap().declared_in, "IDL:A:1.0");
        assert!(repo.is_a("IDL:C:1.0", "IDL:A:1.0"));
        assert!(repo.is_a("IDL:C:1.0", "IDL:C:1.0"));
        assert!(!repo.is_a("IDL:A:1.0", "IDL:C:1.0"));
        assert!(!repo.is_a("IDL:nope:1.0", "IDL:A:1.0"));
    }

    #[test]
    fn diamond_inheritance_allowed() {
        let repo = compile(
            r#"interface Root { void f(); };
               interface L : Root {};
               interface R : Root {};
               interface D : L, R {};"#,
        )
        .unwrap();
        assert_eq!(repo.interface("IDL:D:1.0").unwrap().ops.len(), 1);
    }

    #[test]
    fn conflicting_inherited_ops_rejected() {
        let err = compile(
            r#"interface A { void f(); };
               interface B { void f(); };
               interface C : A, B {};"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("inherited from both"), "{err}");
    }

    #[test]
    fn inheritance_cycle_rejected() {
        // Forward references make a cycle expressible only through
        // mutual recursion; lookup is order-independent so this parses.
        let err = compile(
            r#"interface A : B {};
               interface B : A {};"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn attributes_become_accessors() {
        let repo = compile(
            "interface I { readonly attribute long size; attribute string name; };",
        )
        .unwrap();
        let i = repo.interface("IDL:I:1.0").unwrap();
        assert!(i.op("_get_size").is_some());
        assert!(i.op("_set_size").is_none());
        assert!(i.op("_get_name").is_some());
        let set = i.op("_set_name").unwrap();
        assert_eq!(set.params.len(), 1);
        assert_eq!(set.params[0].ty, ResolvedType::String);
    }

    #[test]
    fn oneway_constraints() {
        assert!(compile("interface I { oneway long f(); };").is_err());
        assert!(compile("interface I { oneway void f(out long x); };").is_err());
        assert!(
            compile("exception E {}; interface I { oneway void f() raises (E); };").is_err()
        );
        assert!(compile("interface I { oneway void f(in long x); };").is_ok());
    }

    #[test]
    fn typedefs_expand() {
        let repo = compile(
            r#"typedef sequence<octet> Blob;
               typedef Blob Blob2;
               interface I { void f(in Blob2 data); };"#,
        )
        .unwrap();
        let f = repo.interface("IDL:I:1.0").unwrap().op("f").unwrap();
        assert_eq!(
            f.params[0].ty,
            ResolvedType::Sequence(Box::new(ResolvedType::Octet))
        );
    }

    #[test]
    fn scoped_resolution_walks_outward() {
        let repo = compile(
            r#"struct Global { long x; };
               module m {
                 struct Inner { long y; };
                 interface I { void f(in Global g, in Inner i); };
               };"#,
        )
        .unwrap();
        let f = repo.interface("IDL:m/I:1.0").unwrap().op("f").unwrap();
        assert_eq!(f.params[0].ty, ResolvedType::Struct("IDL:Global:1.0".into()));
        assert_eq!(f.params[1].ty, ResolvedType::Struct("IDL:m/Inner:1.0".into()));
    }

    #[test]
    fn shadowing_prefers_inner_scope() {
        let repo = compile(
            r#"struct T { long outer; };
               module m {
                 struct T { long inner; };
                 interface I { void f(in T t); };
               };"#,
        )
        .unwrap();
        let f = repo.interface("IDL:m/I:1.0").unwrap().op("f").unwrap();
        assert_eq!(f.params[0].ty, ResolvedType::Struct("IDL:m/T:1.0".into()));
    }

    #[test]
    fn semantic_errors() {
        assert!(compile("interface I { void f(in Missing x); };").is_err());
        assert!(compile("struct S { long a; long a; };").is_err());
        assert!(compile("enum E { a, a };").is_err());
        assert!(compile("interface I { void f(in long x, in long x); };").is_err());
        assert!(compile("interface I {}; interface I {};").is_err());
        assert!(compile("exception E {}; interface I { void f(in E e); };").is_err());
        assert!(compile("eventtype Ev { long x; }; interface I { void f(in Ev e); };").is_err());
        assert!(compile("interface I { void f() raises (NotThere); };").is_err());
        assert!(compile("struct S { long x; }; interface I { void f() raises (S); };").is_err());
        assert!(compile("interface I : NotThere {};").is_err());
        assert!(compile("struct S {}; interface I : S {};").is_err());
        // `void` is a return type only — not an element type either,
        // spelled out or behind an alias, at any nesting depth.
        for src in [
            "interface I { void f(in sequence<void> x); };",
            "interface I { sequence<sequence<void> > f(); };",
            "struct S { sequence<void> xs; };",
            "typedef void V; struct S { sequence<V> xs; };",
            "typedef sequence<void> Vs; interface I { void f(in Vs x); };",
            "typedef void V; eventtype Ev { sequence<V> xs; };",
        ] {
            let e = compile(src).unwrap_err();
            assert!(e.to_string().contains("sequence element cannot be void"), "{src}: {e}");
        }
        assert!(compile("typedef long L; struct S { sequence<L> xs; };").is_ok());
    }

    #[test]
    fn object_references_resolve() {
        let repo = compile(
            r#"interface Display { void draw(); };
               interface App { void attach(in Display d); };"#,
        )
        .unwrap();
        let f = repo.interface("IDL:App:1.0").unwrap().op("attach").unwrap();
        assert_eq!(f.params[0].ty, ResolvedType::Object("IDL:Display:1.0".into()));
    }

    #[test]
    fn merge_repositories() {
        let mut a = compile("interface A {};").unwrap();
        let b = compile("interface B {};").unwrap();
        a.merge(b).unwrap();
        assert!(a.interface("IDL:A:1.0").is_some());
        assert!(a.interface("IDL:B:1.0").is_some());
        // identical duplicate is fine
        let b2 = compile("interface B {};").unwrap();
        a.merge(b2).unwrap();
        // conflicting duplicate is not
        let b3 = compile("interface B { void f(); };").unwrap();
        assert!(a.merge(b3).is_err());
    }

    #[test]
    fn events_resolved() {
        let repo = compile("module m { struct P { long x; }; eventtype Moved { P pos; }; };")
            .unwrap();
        let ev = repo.event("IDL:m/Moved:1.0").unwrap();
        assert_eq!(ev.fields[0].ty, ResolvedType::Struct("IDL:m/P:1.0".into()));
    }
}
