//! `#[derive(Serialize, Deserialize)]` for the vendored offline serde subset.
//!
//! Implemented directly on `proc_macro` token trees (no `syn`/`quote`, since
//! the build has no registry access). The parser handles exactly the item
//! shapes used in this workspace: structs with named fields, tuple structs,
//! unit structs, and enums with unit / tuple / struct variants, plus a single
//! generic parameter list (e.g. `Histogram<T: Ord>`). It implements no
//! `#[serde(...)]` attribute, so it declares none: the compiler rejects one
//! ("cannot find attribute `serde`") instead of the derive ignoring it.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
}

enum Body {
    Unit,
    /// Tuple struct with N unnamed fields.
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    body: Body,
}

enum ItemKind {
    Struct(Body),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Full generics declaration, e.g. `T: Ord` (empty if none).
    generics_decl: String,
    /// Type parameter names, e.g. `["T"]`.
    generics_params: Vec<String>,
    kind: ItemKind,
}

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            tokens: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn skip_attrs(&mut self) {
        loop {
            match (self.tokens.get(self.pos), self.tokens.get(self.pos + 1)) {
                (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                    if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
                {
                    self.pos += 2;
                }
                _ => break,
            }
        }
    }

    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.pos += 1;
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected {}, got {:?}", what, other),
        }
    }

    /// Consume a `<...>` generics block if present; return (decl, params).
    fn parse_generics(&mut self) -> (String, Vec<String>) {
        match self.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
            _ => return (String::new(), Vec::new()),
        }
        self.pos += 1; // consume '<'
        let mut depth = 1usize;
        let mut decl_tokens: Vec<TokenTree> = Vec::new();
        let mut params = Vec::new();
        let mut at_param_start = true;
        let mut prev_was_lifetime_tick = false;
        while depth > 0 {
            let t = self.next().expect("serde_derive: unclosed generics");
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ',' if depth == 1 => at_param_start = true,
                    '\'' => prev_was_lifetime_tick = true,
                    _ => {}
                }
            } else if let TokenTree::Ident(id) = &t {
                if depth == 1 && at_param_start && !prev_was_lifetime_tick {
                    params.push(id.to_string());
                }
                at_param_start = false;
                prev_was_lifetime_tick = false;
            }
            decl_tokens.push(t);
        }
        let decl: TokenStream = decl_tokens.into_iter().collect();
        (decl.to_string(), params)
    }
}

/// Parse named fields from the token stream of a `{ ... }` group.
fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(ts);
    let mut fields = Vec::new();
    loop {
        c.skip_attrs();
        c.skip_visibility();
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected field name, got {:?}", other),
        };
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!(
                "serde_derive: expected ':' after field {}, got {:?}",
                name, other
            ),
        }
        // Skip the type: everything up to a comma at angle-bracket depth 0.
        let mut depth = 0usize;
        while let Some(t) = c.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth = depth.saturating_sub(1),
                    ',' if depth == 0 => {
                        c.pos += 1;
                        break;
                    }
                    _ => {}
                }
            }
            c.pos += 1;
        }
        fields.push(Field { name });
    }
    fields
}

/// Count the comma-separated entries of a tuple-struct / tuple-variant body.
fn count_tuple_fields(ts: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = ts.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1usize;
    let mut depth = 0usize;
    let mut saw_trailing_comma = false;
    for (i, t) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    if i + 1 == tokens.len() {
                        saw_trailing_comma = true;
                    } else {
                        count += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let _ = saw_trailing_comma;
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(ts);
    let mut variants = Vec::new();
    loop {
        c.skip_attrs();
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive: expected variant name, got {:?}", other),
        };
        let body = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                c.pos += 1;
                Body::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                c.pos += 1;
                Body::Named(fields)
            }
            _ => Body::Unit,
        };
        // Skip to the comma separating variants (covers `= discr` forms too).
        while let Some(t) = c.peek() {
            if let TokenTree::Punct(p) = t {
                if p.as_char() == ',' {
                    c.pos += 1;
                    break;
                }
            }
            c.pos += 1;
        }
        variants.push(Variant { name, body });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    c.skip_attrs();
    c.skip_visibility();
    let kw = c.expect_ident("`struct` or `enum`");
    let name = c.expect_ident("item name");
    let (generics_decl, generics_params) = c.parse_generics();
    // Skip a where-clause if present.
    if let Some(TokenTree::Ident(id)) = c.peek() {
        if id.to_string() == "where" {
            while let Some(t) = c.peek() {
                match t {
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                    TokenTree::Punct(p) if p.as_char() == ';' => break,
                    _ => c.pos += 1,
                }
            }
        }
    }
    let kind = if kw == "enum" {
        match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive: expected enum body, got {:?}", other),
        }
    } else if kw == "struct" {
        match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Struct(Body::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::Struct(Body::Tuple(count_tuple_fields(g.stream())))
            }
            _ => ItemKind::Struct(Body::Unit),
        }
    } else {
        panic!(
            "serde_derive: only structs and enums are supported, got `{}`",
            kw
        );
    };
    Item {
        name,
        generics_decl,
        generics_params,
        kind,
    }
}

/// `impl<decl> Trait for Name<params> where P: Bound, ...` header pieces.
fn impl_header(item: &Item, trait_path: &str, bound: &str) -> String {
    let mut s = String::new();
    s.push_str("impl");
    if !item.generics_decl.is_empty() {
        s.push('<');
        s.push_str(&item.generics_decl);
        s.push('>');
    }
    s.push(' ');
    s.push_str(trait_path);
    s.push_str(" for ");
    s.push_str(&item.name);
    if !item.generics_params.is_empty() {
        s.push('<');
        s.push_str(&item.generics_params.join(", "));
        s.push('>');
    }
    if !item.generics_params.is_empty() {
        s.push_str(" where ");
        let clauses: Vec<String> = item
            .generics_params
            .iter()
            .map(|p| format!("{}: {}", p, bound))
            .collect();
        s.push_str(&clauses.join(", "));
    }
    s
}

fn gen_serialize(item: &Item) -> String {
    let mut body = String::new();
    match &item.kind {
        ItemKind::Struct(Body::Unit) => {
            body.push_str("serde::Value::Null");
        }
        ItemKind::Struct(Body::Tuple(1)) => {
            // Newtype structs serialize transparently, matching real serde.
            body.push_str("serde::Serialize::to_value(&self.0)");
        }
        ItemKind::Struct(Body::Tuple(n)) => {
            body.push_str("serde::Value::Seq(vec![");
            for i in 0..*n {
                body.push_str(&format!("serde::Serialize::to_value(&self.{}), ", i));
            }
            body.push_str("])");
        }
        ItemKind::Struct(Body::Named(fields)) => {
            body.push_str("serde::Value::Map(vec![");
            for f in fields {
                body.push_str(&format!(
                    "(\"{0}\".to_string(), serde::Serialize::to_value(&self.{0})), ",
                    f.name
                ));
            }
            body.push_str("])");
        }
        ItemKind::Enum(variants) => {
            body.push_str("match self {");
            for v in variants {
                let name = &item.name;
                match &v.body {
                    Body::Unit => body.push_str(&format!(
                        "{}::{} => serde::Value::Str(\"{}\".to_string()), ",
                        name, v.name, v.name
                    )),
                    Body::Tuple(1) => body.push_str(&format!(
                        "{}::{}(f0) => serde::Value::Map(vec![(\"{}\".to_string(), \
                         serde::Serialize::to_value(f0))]), ",
                        name, v.name, v.name
                    )),
                    Body::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{}", i)).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("serde::Serialize::to_value({})", b))
                            .collect();
                        body.push_str(&format!(
                            "{}::{}({}) => serde::Value::Map(vec![(\"{}\".to_string(), \
                             serde::Value::Seq(vec![{}]))]), ",
                            name,
                            v.name,
                            binds.join(", "),
                            v.name,
                            elems.join(", ")
                        ));
                    }
                    Body::Named(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{0}\".to_string(), serde::Serialize::to_value({0}))",
                                    f.name
                                )
                            })
                            .collect();
                        body.push_str(&format!(
                            "{}::{} {{ {} }} => serde::Value::Map(vec![(\"{}\".to_string(), \
                             serde::Value::Map(vec![{}]))]), ",
                            name,
                            v.name,
                            binds.join(", "),
                            v.name,
                            entries.join(", ")
                        ));
                    }
                }
            }
            body.push('}');
        }
    }
    format!(
        "{} {{ fn to_value(&self) -> serde::Value {{ {} }} }}",
        impl_header(item, "serde::Serialize", "serde::Serialize"),
        body
    )
}

fn named_field_reads(target: &str, fields: &[Field], source: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "{0}: serde::Deserialize::from_value({1}.get(\"{0}\").unwrap_or(&serde::Value::Null))?",
                f.name, source
            )
        })
        .collect();
    format!("Ok({} {{ {} }})", target, inits.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let mut body = String::new();
    match &item.kind {
        ItemKind::Struct(Body::Unit) => {
            body.push_str(&format!("let _ = v; Ok({})", name));
        }
        ItemKind::Struct(Body::Tuple(1)) => {
            body.push_str(&format!("Ok({}(serde::Deserialize::from_value(v)?))", name));
        }
        ItemKind::Struct(Body::Tuple(n)) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_value(&items[{}])?", i))
                .collect();
            body.push_str(&format!(
                "match v {{ serde::Value::Seq(items) if items.len() == {} => \
                 Ok({}({})), other => Err(serde::DeError::custom(format!(\
                 \"expected {}-tuple for {}, got {{:?}}\", other))) }}",
                n,
                name,
                elems.join(", "),
                n,
                name
            ));
        }
        ItemKind::Struct(Body::Named(fields)) => {
            body.push_str(&named_field_reads(name, fields, "v"));
        }
        ItemKind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                match &v.body {
                    Body::Unit => {
                        unit_arms.push_str(&format!("\"{}\" => Ok({}::{}), ", v.name, name, v.name))
                    }
                    Body::Tuple(1) => data_arms.push_str(&format!(
                        "\"{}\" => Ok({}::{}(serde::Deserialize::from_value(payload)?)), ",
                        v.name, name, v.name
                    )),
                    Body::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("serde::Deserialize::from_value(&items[{}])?", i))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{}\" => match payload {{ serde::Value::Seq(items) \
                             if items.len() == {} => Ok({}::{}({})), other => \
                             Err(serde::DeError::custom(format!(\
                             \"bad payload for {}::{}: {{:?}}\", other))) }}, ",
                            v.name,
                            n,
                            name,
                            v.name,
                            elems.join(", "),
                            name,
                            v.name
                        ));
                    }
                    Body::Named(fields) => {
                        let target = format!("{}::{}", name, v.name);
                        data_arms.push_str(&format!(
                            "\"{}\" => {}, ",
                            v.name,
                            named_field_reads(&target, fields, "payload")
                        ));
                    }
                }
            }
            body.push_str(&format!(
                "match v {{ \
                 serde::Value::Str(s) => match s.as_str() {{ {} _ => \
                 Err(serde::DeError::custom(format!(\"unknown {} variant {{}}\", s))) }}, \
                 serde::Value::Map(entries) if entries.len() == 1 => {{ \
                 let (tag, payload) = &entries[0]; \
                 let _ = payload; \
                 match tag.as_str() {{ {} _ => \
                 Err(serde::DeError::custom(format!(\"unknown {} variant {{}}\", tag))) }} }}, \
                 other => Err(serde::DeError::custom(format!(\
                 \"bad value for enum {}: {{:?}}\", other))) }}",
                unit_arms, name, data_arms, name, name
            ));
        }
    }
    format!(
        "{} {{ fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{ {} }} }}",
        impl_header(item, "serde::Deserialize", "serde::Deserialize"),
        body
    )
}

/// Derive `serde::Serialize` (vendored subset).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derive `serde::Deserialize` (vendored subset).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}
