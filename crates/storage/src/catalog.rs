//! The catalog: named relation definitions (scheme, dependencies, domains).

use std::collections::BTreeMap;
use std::sync::Arc;

use flexrel_core::attr::Attr;
use flexrel_core::dep::{Dependency, DependencySet};
use flexrel_core::error::{CoreError, Result};
use flexrel_core::facts::SemanticFacts;
use flexrel_core::relation::FlexRelation;
use flexrel_core::scheme::FlexScheme;
use flexrel_core::value::Domain;

/// The definition of one relation: everything except its instance.
#[derive(Clone, Debug)]
pub struct RelationDef {
    /// Relation name.
    pub name: String,
    /// The flexible scheme.
    pub scheme: FlexScheme,
    /// Declared dependencies (EADs, ADs, FDs).
    pub deps: DependencySet,
    /// Declared attribute domains.
    pub domains: BTreeMap<Attr, Domain>,
}

impl RelationDef {
    /// Creates a definition with no dependencies or domains.
    pub fn new(name: impl Into<String>, scheme: FlexScheme) -> Self {
        RelationDef {
            name: name.into(),
            scheme,
            deps: DependencySet::new(),
            domains: BTreeMap::new(),
        }
    }

    /// Adds a dependency (builder style).
    pub fn with_dep(mut self, dep: impl Into<Dependency>) -> Self {
        self.deps.add(dep);
        self
    }

    /// Declares an attribute domain (builder style).
    pub fn with_domain(mut self, attr: impl Into<Attr>, domain: Domain) -> Self {
        self.domains.insert(attr.into(), domain);
        self
    }

    /// Extracts a definition from an existing relation.
    pub fn from_relation(rel: &FlexRelation) -> Self {
        RelationDef {
            name: rel.name().to_string(),
            scheme: rel.scheme().clone(),
            deps: rel.deps().clone(),
            domains: rel.domains().clone(),
        }
    }
}

/// One registered relation: its definition and the [`SemanticFacts`]
/// derived from it when it was registered.
#[derive(Debug)]
struct Entry {
    def: RelationDef,
    facts: SemanticFacts,
}

/// A catalog of relation definitions, each with the [`SemanticFacts`]
/// derived from it.  The facts are built once, at registration, and shared
/// by every copy of the catalog: the database publishes DDL by swapping in
/// a modified copy, so a planner holding a catalog snapshot holds facts
/// that match its definitions, and dropping a relation drops them — there
/// is nothing to invalidate.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<Entry>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a relation definition; fails if the name is taken.
    pub fn register(&mut self, def: RelationDef) -> Result<()> {
        if self.relations.contains_key(&def.name) {
            return Err(CoreError::Invalid(format!(
                "relation {} already exists",
                def.name
            )));
        }
        let facts = SemanticFacts::new(&def.scheme, &def.deps);
        self.relations
            .insert(def.name.clone(), Arc::new(Entry { def, facts }));
        Ok(())
    }

    /// Looks up a definition.
    pub fn get(&self, name: &str) -> Result<&RelationDef> {
        self.relations
            .get(name)
            .map(|e| &e.def)
            .ok_or_else(|| CoreError::NotFound(format!("relation {}", name)))
    }

    /// The semantic facts (closure index, mandatory attributes, attribute
    /// universe, EAD variants) of a registered relation.
    pub fn facts(&self, name: &str) -> Option<&SemanticFacts> {
        self.relations.get(name).map(|e| &e.facts)
    }

    /// Drops a definition, returning it.
    pub fn drop(&mut self, name: &str) -> Result<RelationDef> {
        let entry = self
            .relations
            .remove(name)
            .ok_or_else(|| CoreError::NotFound(format!("relation {}", name)))?;
        // Other catalog snapshots may still share the entry.
        Ok(Arc::try_unwrap(entry).map_or_else(|shared| shared.def.clone(), |e| e.def))
    }

    /// Whether a relation is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all registered relations.
    pub fn names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::attrs;
    use flexrel_core::dep::Fd;

    fn def() -> RelationDef {
        RelationDef::new("emp", FlexScheme::relational(attrs!["empno", "name"]))
            .with_dep(Fd::new(attrs!["empno"], attrs!["name"]))
            .with_domain("empno", Domain::Int)
    }

    #[test]
    fn register_lookup_drop() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(def()).unwrap();
        assert!(c.contains("emp"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.names(), vec!["emp"]);
        assert_eq!(c.get("emp").unwrap().deps.len(), 1);
        assert!(c.get("nope").is_err());
        assert!(c.register(def()).is_err(), "duplicate names rejected");
        c.drop("emp").unwrap();
        assert!(c.drop("emp").is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn definition_round_trips_through_relation() {
        let d = def();
        let rel = FlexRelation::new("emp", d.scheme.clone())
            .with_dep(Fd::new(attrs!["empno"], attrs!["name"]))
            .with_domain("empno", Domain::Int);
        let d2 = RelationDef::from_relation(&rel);
        assert_eq!(d2.name, d.name);
        assert_eq!(d2.scheme, d.scheme);
        assert_eq!(d2.deps, d.deps);
        assert_eq!(d2.domains, d.domains);
    }
}
