//! The concretization algorithm, re-platformed on the [`crate::csp`]
//! propagation core.
//!
//! Package recipes, user specs, and site policy are compiled into typed
//! variables with preference-ordered finite domains — one `Version`, one
//! `Compiler`, and one `Variant` variable per package node, one `Provider`
//! variable per virtual — and every constraint application is posted to the
//! model, pruning domains and recording provenance on the trail. Choice
//! points are then resolved by reading each domain's most-preferred
//! surviving value, which provably reproduces the original greedy solver's
//! picks (site-preferred versions first, declared order next; first viable
//! provider candidate; first matching compiler entry).
//!
//! Propagation runs on a dirty-key worklist instead of whole-graph sweeps:
//! only packages whose accumulated spec changed are revisited, which is what
//! makes both 10k-package repositories and incremental re-solving
//! ([`SolveSession`]) tractable. A domain wipeout anywhere surfaces as a
//! [`ConcretizeError`] carrying a justification chain (which constraint
//! removed which candidate, and why) plus the dependency path from the root
//! to the failing package.
//!
//! In *analysis* mode ([`Concretizer::analysis`]) recipe `conflicts(…)`
//! declarations are additionally compiled to n-ary nogoods and propagated
//! eagerly, so unsatisfiable specs fail with full multi-step explanations —
//! the machinery behind `benchpark explain` and the BP05xx lint rules.

use crate::config::SiteConfig;
use crate::csp::{ConstraintKind, Csp, Explanation, Mark, Reason, Val, VarId, VarKey};
use crate::error::{ConcretizeError, ConcretizeErrorKind};
use crate::result::{content_hash, ConcreteNode, ConcreteSpec, Origin};
use benchpark_pkg::{PackageDef, Repo};
use benchpark_spec::{CompilerSpec, Spec, VariantValue, VersionConstraint};
use benchpark_telemetry::TelemetrySink;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// The concretizer: borrows a repository and site configuration.
pub struct Concretizer<'a> {
    repo: &'a Repo,
    config: &'a SiteConfig,
    telemetry: TelemetrySink,
    analysis: bool,
}

/// What the solver decided along the way: provider choices (with the full
/// viable candidate set in analysis mode) and propagation effort.
#[derive(Debug, Clone, Default)]
pub struct SolveTrace {
    /// Worklist rounds taken to reach the propagation fixpoint.
    pub rounds: usize,
    /// Worklist visits: package nodes (re-)propagated, over all rounds.
    pub steps: usize,
    /// One entry per resolved virtual, in resolution order.
    pub providers: Vec<ProviderChoice>,
}

/// One virtual-provider decision.
#[derive(Debug, Clone)]
pub struct ProviderChoice {
    pub virtual_name: String,
    /// The provider the solver selected.
    pub chosen: String,
    /// All candidates that were viable at decision time (analysis mode
    /// evaluates every candidate; production mode stops at the first).
    pub viable: Vec<String>,
    /// Site policy disambiguated the choice: the chosen provider is either a
    /// named provider preference or a declared external installation.
    pub preferred: bool,
}

impl<'a> Concretizer<'a> {
    /// Creates a solver for the given repository and site.
    pub fn new(repo: &'a Repo, config: &'a SiteConfig) -> Concretizer<'a> {
        Concretizer {
            repo,
            config,
            telemetry: TelemetrySink::noop(),
            analysis: false,
        }
    }

    /// Routes solver telemetry (solve counts, propagation passes, rejected
    /// provider candidates, per-environment `concretize` spans) to `sink`.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Concretizer<'a> {
        self.telemetry = sink;
        self
    }

    /// Analysis mode: recipe conflicts become eagerly-propagated nogoods and
    /// provider resolution evaluates every candidate's viability, so failures
    /// carry maximal justification chains and [`SolveTrace`] records
    /// ambiguity. Used by `benchpark explain` and `lint --solve`.
    pub fn analysis(mut self) -> Concretizer<'a> {
        self.analysis = true;
        self
    }

    /// Concretizes a single abstract spec.
    pub fn concretize(&self, abstract_spec: &Spec) -> Result<ConcreteSpec, ConcretizeError> {
        let mut results = self.concretize_env(std::slice::from_ref(abstract_spec), true)?;
        Ok(results.pop().expect("one root yields one result"))
    }

    /// Concretizes a single spec and returns the decision trace alongside
    /// the result (used by the analysis layer).
    pub fn concretize_traced(
        &self,
        abstract_spec: &Spec,
    ) -> (Result<ConcreteSpec, ConcretizeError>, SolveTrace) {
        let _span = self.telemetry.span("concretize");
        let mut solve = Solve::new(self);
        let result = solve
            .add_root(abstract_spec)
            .and_then(|_| solve.run())
            .and_then(|_| solve.extract(&solve.root_key(abstract_spec)));
        (result, solve.trace)
    }

    /// Concretizes an environment's root specs.
    ///
    /// With `unify = true` (Figure 3's `concretizer: unify: true`) all roots
    /// share one node table, so the environment contains at most one
    /// configuration of each package; conflicting roots fail with
    /// [`ConcretizeErrorKind::UnifyConflict`]. With `unify = false` each root
    /// is solved independently.
    pub fn concretize_env(
        &self,
        roots: &[Spec],
        unify: bool,
    ) -> Result<Vec<ConcreteSpec>, ConcretizeError> {
        let _span = self.telemetry.span("concretize");
        if unify {
            let mut solve = Solve::new(self);
            for root in roots {
                solve.add_root(root).map_err(|e| match e.kind {
                    ConcretizeErrorKind::Unsatisfiable { message } => ConcretizeError {
                        kind: ConcretizeErrorKind::UnifyConflict {
                            name: root.name_str().to_string(),
                            message,
                        },
                        path: e.path,
                        explanation: e.explanation,
                    },
                    _ => e,
                })?;
            }
            solve.run()?;
            roots
                .iter()
                .map(|r| solve.extract(&solve.root_key(r)))
                .collect()
        } else {
            roots
                .iter()
                .map(|root| {
                    let mut solve = Solve::new(self);
                    solve.add_root(root)?;
                    solve.run()?;
                    solve.extract(&solve.root_key(root))
                })
                .collect()
        }
    }

    /// Solves `root` once and keeps the propagation state alive for
    /// incremental re-solving: [`SolveSession::resolve_version`] applies one
    /// constraint edit, re-propagates only from the affected frontier, and
    /// rewinds the trail afterwards. Not available with `reuse` enabled.
    pub fn session<'b>(&'b self, root: &Spec) -> Result<SolveSession<'a, 'b>, ConcretizeError> {
        if self.config.reuse {
            return Err(ConcretizeError::unsatisfiable(
                "incremental sessions do not support reuse",
            ));
        }
        let mut solve = Solve::new(self);
        solve.add_root(root)?;
        solve.prepare()?;
        // snapshot the pre-finalization state: this is the frontier edits
        // restart from
        let mark = solve.csp.mark();
        let frontier_nodes = solve.nodes.clone();
        solve.finalize()?;
        let root_key = solve.root_key(root);
        let base = solve.extract(&root_key)?;
        let finalized_nodes = std::mem::replace(&mut solve.nodes, frontier_nodes);
        solve.csp.rewind(mark);
        Ok(SolveSession {
            solve,
            mark,
            root_key,
            base,
            finalized_nodes,
        })
    }
}

/// A solved root kept warm for incremental re-solving.
///
/// The session holds the pre-finalization node table and a trail [`Mark`];
/// each edit constrains one node, drains the dirty-key worklist (touching
/// only the affected subgraph), re-finalizes touched nodes (untouched nodes
/// reuse their finalized specs and content hashes from the base solve), and
/// rewinds everything afterwards — cold-solve results are reproduced without
/// cold-solve work.
pub struct SolveSession<'a, 'b> {
    solve: Solve<'a, 'b>,
    mark: Mark,
    root_key: String,
    base: ConcreteSpec,
    finalized_nodes: BTreeMap<String, Node>,
}

impl SolveSession<'_, '_> {
    /// The result of the initial cold solve.
    pub fn base(&self) -> &ConcreteSpec {
        &self.base
    }

    /// Propagation effort so far: the cold solve plus every edit.
    pub fn trace(&self) -> &SolveTrace {
        &self.solve.trace
    }

    /// Re-solves with one additional version constraint on `package`,
    /// re-propagating only from the edit's frontier. The session state is
    /// rewound afterwards, so edits are independent, not cumulative.
    pub fn resolve_version(
        &mut self,
        package: &str,
        constraint: &VersionConstraint,
    ) -> Result<ConcreteSpec, ConcretizeError> {
        if !self.solve.nodes.contains_key(package) {
            return Err(ConcretizeError::new(ConcretizeErrorKind::UnknownPackage {
                name: package.to_string(),
            }));
        }
        let mut edit = Spec::named(package);
        edit.versions = constraint.clone();
        let frontier_nodes = self.solve.nodes.clone();
        let result = self.solve_edit(package, &edit);
        // rewind to the frontier for the next edit
        self.solve.nodes = frontier_nodes;
        self.solve.csp.rewind(self.mark);
        self.solve.dirty.clear();
        self.solve.touched.clear();
        result
    }

    fn solve_edit(&mut self, package: &str, edit: &Spec) -> Result<ConcreteSpec, ConcretizeError> {
        self.solve.touched.clear();
        self.solve
            .constrain_node(package, edit, None, "incremental edit")?;
        self.solve.propagate_to_fixpoint()?;
        self.solve.check_cycles()?;
        let touched = self.solve.touched.clone();
        self.solve
            .finalize_incremental(&touched, &self.finalized_nodes)?;
        self.solve
            .extract_incremental(&self.root_key, &touched, &self.base)
    }
}

/// One node of the partial solution.
#[derive(Debug, Clone)]
struct Node {
    /// Accumulated constraints; `name` is always set, `dependencies` unused
    /// (edges live in `deps`).
    spec: Spec,
    /// Edges: resolved dependency package name → node key.
    deps: BTreeMap<String, String>,
    /// Virtuals this node provides in this solution.
    provides: Vec<String>,
    origin: Origin,
    /// Defaults have been applied at least once.
    defaulted: bool,
    /// The package that first demanded this node (dependency-path context).
    required_by: Option<String>,
    /// Model variables owned by this node.
    version_var: VarId,
    compiler_var: VarId,
    variant_vars: BTreeMap<String, VarId>,
}

/// A user-requested dependency on a virtual (`^mpi+cuda`) awaiting provider
/// resolution.
#[derive(Debug)]
struct PendingVirtual {
    root: String,
    virtual_name: String,
    constraint: Spec,
    consumed: bool,
}

struct Solve<'a, 'b> {
    cz: &'b Concretizer<'a>,
    nodes: BTreeMap<String, Node>,
    pending: Vec<PendingVirtual>,
    csp: Csp,
    /// Keys whose constraints changed and need (re-)stepping.
    dirty: BTreeSet<String>,
    /// Keys touched since the last [`Solve::touched`] reset (incremental
    /// finalization scope).
    touched: BTreeSet<String>,
    /// The site compiler domain, rendered once per solve (every node shares
    /// the same candidate list).
    compiler_domain: Vec<Val>,
    trace: SolveTrace,
}

impl<'a, 'b> Solve<'a, 'b> {
    fn new(cz: &'b Concretizer<'a>) -> Self {
        Solve {
            cz,
            nodes: BTreeMap::new(),
            pending: Vec::new(),
            csp: if cz.analysis {
                Csp::analysis()
            } else {
                Csp::new()
            },
            dirty: BTreeSet::new(),
            touched: BTreeSet::new(),
            compiler_domain: cz
                .config
                .compilers
                .iter()
                .map(|e| Val::Name(format!("{}@{}", e.name, e.version)))
                .collect(),
            trace: SolveTrace::default(),
        }
    }

    /// The node key a root spec resolves to (providers for virtual roots).
    fn root_key(&self, root: &Spec) -> String {
        let name = root.name_str();
        if self.nodes.contains_key(name) {
            return name.to_string();
        }
        // virtual root: find its provider
        self.nodes
            .iter()
            .find(|(_, n)| n.provides.iter().any(|v| v == name))
            .map(|(k, _)| k.clone())
            .unwrap_or_else(|| name.to_string())
    }

    /// The dependency path from a root to `key` (`a -> b -> c`), following
    /// `required_by` links.
    fn path_to(&self, key: &str) -> Vec<String> {
        let mut path = vec![key.to_string()];
        let mut cursor = key.to_string();
        while let Some(parent) = self.nodes.get(&cursor).and_then(|n| n.required_by.clone()) {
            if path.contains(&parent) || path.len() > 128 {
                break;
            }
            path.push(parent.clone());
            cursor = parent;
        }
        path.reverse();
        path
    }

    /// The path to a child demanded by `via` that may not exist as a node.
    fn child_path(&self, via: Option<&str>, child: &str) -> Vec<String> {
        match via {
            Some(parent) => {
                let mut path = self.path_to(parent);
                path.push(child.to_string());
                path
            }
            None => vec![child.to_string()],
        }
    }

    fn add_root(&mut self, root: &Spec) -> Result<(), ConcretizeError> {
        let name = root.name.clone().ok_or_else(|| {
            ConcretizeError::unsatisfiable(format!("root spec `{root}` has no package name"))
        })?;
        let actor = format!("user spec `{root}`");

        // Virtual root (`spack add mpi`): resolve the provider immediately.
        let key = if self.cz.repo.get(&name).is_none() && self.cz.repo.is_virtual(&name) {
            let mut constraint = root.clone();
            constraint.name = None;
            constraint.dependencies.clear();
            self.resolve_provider(&name, &constraint, None)?
        } else {
            name.clone()
        };

        let mut constraint = root.clone();
        constraint.name = Some(key.clone());
        let deps = std::mem::take(&mut constraint.dependencies);
        self.constrain_node(&key, &constraint, None, &actor)?;

        // apply site-wide requirements to roots
        let config = self.cz.config;
        for req in &config.require {
            let mut r = req.clone();
            r.name = Some(key.clone());
            self.constrain_node(&key, &r, None, "site packages.yaml `require`")?;
        }

        // `^dep` constraints: real packages become forced edges now; virtuals
        // wait for provider resolution.
        for (dep_name, dep_spec) in deps {
            if self.cz.repo.get(&dep_name).is_some() {
                self.constrain_node(&dep_name, &dep_spec, Some(&key), &actor)?;
                self.nodes
                    .get_mut(&key)
                    .expect("root node exists")
                    .deps
                    .insert(dep_name.clone(), dep_name.clone());
            } else if self.cz.repo.is_virtual(&dep_name) {
                let mut c = dep_spec.clone();
                c.name = None;
                self.pending.push(PendingVirtual {
                    root: key.clone(),
                    virtual_name: dep_name,
                    constraint: c,
                    consumed: false,
                });
            } else {
                let path = self.child_path(Some(&key), &dep_name);
                return Err(ConcretizeError::new(ConcretizeErrorKind::UnknownPackage {
                    name: dep_name,
                })
                .with_path(path));
            }
        }
        Ok(())
    }

    /// Creates the node and registers its model variables: a version domain
    /// (site-preferred declared versions first, then the rest in declared
    /// order), a compiler domain (site entries in preference order), and one
    /// variant domain per declared variant (default value first).
    fn ensure_node(&mut self, key: &str, via: Option<&str>) -> Result<(), ConcretizeError> {
        let repo: &Repo = self.cz.repo;
        let Some(pkg) = repo.get(key) else {
            let path = self.child_path(via, key);
            return Err(ConcretizeError::new(ConcretizeErrorKind::UnknownPackage {
                name: key.to_string(),
            })
            .with_path(path));
        };
        if self.nodes.contains_key(key) {
            return Ok(());
        }
        let site_pref = self.cz.config.version_prefs.get(key);
        let mut versions: Vec<Val> = Vec::new();
        for v in &pkg.versions {
            if site_pref.is_some_and(|p| p.contains(v)) {
                versions.push(Val::Version(v.clone()));
            }
        }
        for v in &pkg.versions {
            if !site_pref.is_some_and(|p| p.contains(v)) {
                versions.push(Val::Version(v.clone()));
            }
        }
        let version_var = self.csp.var(VarKey::version(key), versions, false);
        let compilers = self.compiler_domain.clone();
        let compiler_var = self.csp.var(VarKey::compiler(key), compilers, false);
        let mut variant_vars = BTreeMap::new();
        for variant in &pkg.variants {
            let domain = match &variant.default {
                VariantValue::Bool(d) => vec![
                    Val::Variant(VariantValue::Bool(*d)),
                    Val::Variant(VariantValue::Bool(!*d)),
                ],
                other => vec![Val::Variant(other.clone())],
            };
            let var = self
                .csp
                .var(VarKey::variant(key, &variant.name), domain, true);
            variant_vars.insert(variant.name.clone(), var);
        }
        self.nodes.insert(
            key.to_string(),
            Node {
                spec: Spec::named(key),
                deps: BTreeMap::new(),
                provides: Vec::new(),
                origin: Origin::Source,
                defaulted: false,
                required_by: via.map(|v| v.to_string()),
                version_var,
                compiler_var,
                variant_vars,
            },
        );
        self.dirty.insert(key.to_string());
        self.touched.insert(key.to_string());
        if self.cz.analysis {
            self.post_conflict_nogoods(key, pkg);
        }
        Ok(())
    }

    /// Compiles recipe `conflicts(…)` declarations into n-ary nogoods over
    /// this node's variables (analysis mode). Only version, boolean/single
    /// variant, and compiler atoms are expressible; conflicts mentioning
    /// targets, dependencies, or flags stay with the finalization check.
    fn post_conflict_nogoods(&mut self, key: &str, pkg: &PackageDef) {
        for conflict in &pkg.conflicts {
            let mut literals = Vec::new();
            let mut ok = self.spec_literals(key, pkg, &conflict.conflict, &mut literals);
            if let Some(when) = &conflict.when {
                ok = ok && self.spec_literals(key, pkg, when, &mut literals);
            }
            if !ok || literals.is_empty() {
                continue;
            }
            let when_text = conflict
                .when
                .as_ref()
                .map(|w| format!(" when `{w}`"))
                .unwrap_or_default();
            self.csp.post_nogood(
                literals,
                Reason::new(
                    format!("recipe `{key}`"),
                    format!(
                        "conflicts(`{}`{when_text}): {}",
                        conflict.conflict, conflict.message
                    ),
                ),
                Some((key.to_string(), conflict.message.clone())),
            );
        }
    }

    /// Lowers one conflict-atom spec into nogood literals; returns false if
    /// the spec mentions something the model cannot express.
    fn spec_literals(
        &mut self,
        key: &str,
        pkg: &PackageDef,
        spec: &Spec,
        literals: &mut Vec<(VarId, Vec<Val>)>,
    ) -> bool {
        if spec.target.is_some() || !spec.dependencies.is_empty() || !spec.compiler_flags.is_empty()
        {
            return false;
        }
        if !spec.versions.is_any() {
            let vals: Vec<Val> = pkg
                .versions
                .iter()
                .filter(|v| spec.versions.contains(v))
                .map(|v| Val::Version(v.clone()))
                .collect();
            let node = &self.nodes[key];
            literals.push((node.version_var, vals));
        }
        for (name, value) in &spec.variants {
            match value {
                VariantValue::Bool(_) | VariantValue::Single(_) => {}
                VariantValue::Multi(_) => return false,
            }
            let var = self.variant_var(key, name);
            literals.push((var, vec![Val::Variant(value.clone())]));
        }
        if let Some(c) = &spec.compiler {
            let vals: Vec<Val> = self
                .cz
                .config
                .compilers
                .iter()
                .filter(|e| e.name == c.name && c.versions.contains(&e.version))
                .map(|e| Val::Name(format!("{}@{}", e.name, e.version)))
                .collect();
            let node = &self.nodes[key];
            literals.push((node.compiler_var, vals));
        }
        true
    }

    /// The variant variable for `key:name`, creating an open domain for
    /// undeclared variants.
    fn variant_var(&mut self, key: &str, name: &str) -> VarId {
        if let Some(&var) = self.nodes[key].variant_vars.get(name) {
            return var;
        }
        let var = self.csp.var(VarKey::variant(key, name), Vec::new(), true);
        self.nodes
            .get_mut(key)
            .expect("node exists")
            .variant_vars
            .insert(name.to_string(), var);
        var
    }

    /// Creates or constrains a node: posts every atom of `constraint` to the
    /// model (recording provenance), then folds it into the accumulated
    /// spec, which stays the authority for dependency activation.
    fn constrain_node(
        &mut self,
        key: &str,
        constraint: &Spec,
        via: Option<&str>,
        actor: &str,
    ) -> Result<bool, ConcretizeError> {
        self.ensure_node(key, via)?;
        let mut c = constraint.clone();
        c.dependencies.clear();
        c.name = Some(key.to_string());

        // shadow posts first: a wipeout here is the justification chain for
        // the spec-level conflict error below
        let mut wipeout: Option<Box<Explanation>> = None;
        if !c.versions.is_any() {
            let version_var = self.nodes[key].version_var;
            let reason = Reason::new(actor, format!("requires `@{}`", c.versions));
            if let Err(e) = self.csp.post(
                version_var,
                ConstraintKind::VersionIn(c.versions.clone()),
                reason,
            ) {
                wipeout.get_or_insert(e);
            }
        }
        for (name, value) in &c.variants {
            let var = self.variant_var(key, name);
            let reason = Reason::new(actor, format!("requires `{}`", value.render(name)));
            if let Err(e) = self
                .csp
                .post(var, ConstraintKind::VariantIs(value.clone()), reason)
            {
                wipeout.get_or_insert(e);
            }
        }
        if let Some(comp) = &c.compiler {
            let keep: Vec<Val> = self
                .cz
                .config
                .compilers
                .iter()
                .filter(|e| e.name == comp.name && comp.versions.contains(&e.version))
                .map(|e| Val::Name(format!("{}@{}", e.name, e.version)))
                .collect();
            let compiler_var = self.nodes[key].compiler_var;
            let reason = Reason::new(actor, format!("requires `%{comp}`"));
            if let Err(e) = self
                .csp
                .post(compiler_var, ConstraintKind::KeepOnly(keep), reason)
            {
                wipeout.get_or_insert(e);
            }
        }

        let node = self.nodes.get_mut(key).expect("ensured above");
        let before = node.spec.clone();
        if let Err(e) = node.spec.constrain(&c) {
            let mut err =
                ConcretizeError::unsatisfiable(e.to_string()).with_path(self.path_to(key));
            if let Some(x) = wipeout {
                err = err.with_explanation(x);
            }
            return Err(err);
        }
        let changed = self.nodes[key].spec != before;
        if changed {
            self.dirty.insert(key.to_string());
            self.touched.insert(key.to_string());
        }
        Ok(changed)
    }

    /// A candidate's viability for providing `virtual_name` under
    /// `constraint` — the same checks the resolution loop applies, without
    /// mutating anything.
    fn provider_viable(&self, candidate: &str, virtual_name: &str, constraint: &Spec) -> bool {
        let Some(pkg) = self.cz.repo.get(candidate) else {
            return false;
        };
        let Some(provide) = pkg.provides.iter().find(|p| p.virtual_name == virtual_name) else {
            return false;
        };
        let mut probe = Spec::named(candidate);
        let mut c = constraint.clone();
        c.name = Some(candidate.to_string());
        if let Some(when) = &provide.when {
            let mut cond = when.clone();
            cond.name = Some(candidate.to_string());
            if c.constrain(&cond).is_err() {
                return false;
            }
        }
        if probe.constrain(&c).is_err() {
            return false;
        }
        if let Some(existing) = self.nodes.get(candidate) {
            if !existing.spec.intersects(&probe) {
                return false;
            }
        }
        true
    }

    /// Chooses a provider for `virtual_name` under `constraint` (an
    /// anonymous spec) by pruning the provider variable's domain: candidates
    /// are tried in preference order (existing DAG nodes, site preferences,
    /// externals-first, then alphabetical), each rejection posts an
    /// `Exclude` with its reason, and the first survivor is assigned. A
    /// wiped-out domain renders as the virtual's justification chain.
    fn resolve_provider(
        &mut self,
        virtual_name: &str,
        constraint: &Spec,
        via: Option<&str>,
    ) -> Result<String, ConcretizeError> {
        // 1. an existing node already providing this virtual wins (unification)
        if let Some((key, _)) = self
            .nodes
            .iter()
            .find(|(_, n)| n.provides.iter().any(|v| v == virtual_name))
        {
            let key = key.clone();
            let actor = format!("virtual `{virtual_name}` constraint");
            self.constrain_node(&key, constraint, via, &actor)?;
            return Ok(key);
        }

        let candidates: Vec<String> = {
            let mut names: Vec<String> = Vec::new();
            // 2. a node already in the DAG whose recipe provides the virtual
            //    (e.g. a user-forced `^openmpi`) wins over site preferences
            for (key, _) in self.nodes.iter() {
                if let Some(pkg) = self.cz.repo.get(key) {
                    if pkg.provides.iter().any(|p| p.virtual_name == virtual_name) {
                        names.push(key.clone());
                    }
                }
            }
            // site preferences next
            if let Some(prefs) = self.cz.config.provider_prefs.get(virtual_name) {
                names.extend(prefs.iter().cloned());
            }
            // then providers with externals, then the rest alphabetically
            let mut rest: Vec<(bool, String)> = self
                .cz
                .repo
                .providers(virtual_name)
                .iter()
                .map(|p| {
                    (
                        self.cz.config.externals_for(&p.name).is_empty(),
                        p.name.clone(),
                    )
                })
                .collect();
            rest.sort();
            names.extend(rest.into_iter().map(|(_, n)| n));
            names
        };

        // provider variable over the deduplicated candidates, keeping
        // first-occurrence preference order
        let mut domain: Vec<Val> = Vec::new();
        for name in &candidates {
            let val = Val::Name(name.clone());
            if !domain.contains(&val) {
                domain.push(val);
            }
        }
        let pvar = self.csp.var(VarKey::provider(virtual_name), domain, false);

        let viable: Vec<String> = if self.cz.analysis {
            let mut seen = BTreeSet::new();
            candidates
                .iter()
                .filter(|c| seen.insert(c.as_str().to_string()))
                .filter(|c| self.provider_viable(c, virtual_name, constraint))
                .cloned()
                .collect()
        } else {
            Vec::new()
        };

        for candidate in candidates {
            let Some(pkg) = self.cz.repo.get(&candidate) else {
                let _ = self.csp.post(
                    pvar,
                    ConstraintKind::Exclude(vec![Val::Name(candidate.clone())]),
                    Reason::new("repository", format!("no recipe for `{candidate}`")),
                );
                continue;
            };
            let Some(provide) = pkg.provides.iter().find(|p| p.virtual_name == virtual_name) else {
                let _ = self.csp.post(
                    pvar,
                    ConstraintKind::Exclude(vec![Val::Name(candidate.clone())]),
                    Reason::new(
                        format!("recipe `{candidate}`"),
                        format!("does not provide `{virtual_name}`"),
                    ),
                );
                continue;
            };
            // candidate must be compatible with the constraint, plus any
            // `provides(…, when=…)` condition (choosing this provider then
            // *forces* the condition, e.g. the variant that enables the
            // virtual interface)
            let mut probe = Spec::named(&candidate);
            let mut c = constraint.clone();
            c.name = Some(candidate.clone());
            if let Some(when) = &provide.when {
                let mut cond = when.clone();
                cond.name = Some(candidate.clone());
                if c.constrain(&cond).is_err() {
                    self.cz.telemetry.incr("concretizer.rejected_providers", 1);
                    let _ = self.csp.post(
                        pvar,
                        ConstraintKind::Exclude(vec![Val::Name(candidate.clone())]),
                        Reason::new(
                            format!("recipe `{candidate}`"),
                            format!(
                                "provides `{virtual_name}` only when `{when}`, which conflicts with `{constraint}`"
                            ),
                        ),
                    );
                    continue;
                }
            }
            if probe.constrain(&c).is_err() {
                self.cz.telemetry.incr("concretizer.rejected_providers", 1);
                let _ = self.csp.post(
                    pvar,
                    ConstraintKind::Exclude(vec![Val::Name(candidate.clone())]),
                    Reason::new(
                        format!("virtual `{virtual_name}` constraint"),
                        format!("`{constraint}` is incompatible with `{candidate}`"),
                    ),
                );
                continue;
            }
            // and with any existing node of that name
            if let Some(existing) = self.nodes.get(&candidate) {
                if !existing.spec.intersects(&probe) {
                    self.cz.telemetry.incr("concretizer.rejected_providers", 1);
                    let _ = self.csp.post(
                        pvar,
                        ConstraintKind::Exclude(vec![Val::Name(candidate.clone())]),
                        Reason::new(
                            format!("existing node `{candidate}`"),
                            format!("is incompatible with `{constraint}`"),
                        ),
                    );
                    continue;
                }
            }
            let actor = format!("virtual `{virtual_name}` constraint");
            self.constrain_node(&candidate, &c, via, &actor)?;
            let _ = self.csp.assign(
                pvar,
                &Val::Name(candidate.clone()),
                Reason::new(
                    "decision",
                    format!("selected `{candidate}` to provide `{virtual_name}`"),
                ),
            );
            let node = self.nodes.get_mut(&candidate).expect("just created");
            if !node.provides.iter().any(|v| v == virtual_name) {
                node.provides.push(virtual_name.to_string());
            }
            // consume matching pending user constraints
            let mut pending_constraints = Vec::new();
            for p in self.pending.iter_mut() {
                if p.virtual_name == virtual_name && !p.consumed {
                    p.consumed = true;
                    pending_constraints.push(p.constraint.clone());
                }
            }
            for pc in pending_constraints {
                let mut c = pc;
                c.name = Some(candidate.clone());
                let actor = format!("user `^{virtual_name}`");
                self.constrain_node(&candidate, &c, via, &actor)?;
            }
            let preferred = self
                .cz
                .config
                .provider_prefs
                .get(virtual_name)
                .is_some_and(|p| p.contains(&candidate))
                || self.cz.config.externals.contains_key(&candidate);
            self.trace.providers.push(ProviderChoice {
                virtual_name: virtual_name.to_string(),
                chosen: candidate.clone(),
                viable: if self.cz.analysis {
                    viable
                } else {
                    vec![candidate.clone()]
                },
                preferred,
            });
            return Ok(candidate);
        }
        let path = self.child_path(via, virtual_name);
        Err(ConcretizeError::new(ConcretizeErrorKind::NoProvider {
            virtual_name: virtual_name.to_string(),
            constraint: constraint.to_string(),
        })
        .with_path(path)
        .with_explanation(Box::new(self.csp.explain(pvar))))
    }

    /// Runs propagation to fixpoint, then finalizes all choices.
    fn run(&mut self) -> Result<(), ConcretizeError> {
        self.prepare()?;
        self.finalize()?;
        Ok(())
    }

    /// Everything up to (but excluding) choice finalization.
    fn prepare(&mut self) -> Result<(), ConcretizeError> {
        self.cz.telemetry.incr("concretizer.solves", 1);
        self.dirty.extend(self.nodes.keys().cloned());
        self.propagate_to_fixpoint()?;
        self.resolve_unconsumed_pending()?;
        self.check_cycles()?;
        if self.cz.config.reuse {
            self.adopt_reusable();
        }
        Ok(())
    }

    /// Drains the dirty-key worklist. A round visits the dirty keys in
    /// ascending order, picking up keys dirtied at later positions within
    /// the same round (the sweep order of the original fixpoint loop); keys
    /// dirtied at earlier positions wait for the next round.
    fn propagate_to_fixpoint(&mut self) -> Result<(), ConcretizeError> {
        const MAX_ROUNDS: usize = 64;
        let mut rounds = 0;
        while !self.dirty.is_empty() {
            rounds += 1;
            self.cz.telemetry.incr("concretizer.passes", 1);
            if rounds > MAX_ROUNDS {
                // mirror the bounded fixpoint of the original solver: stop
                // propagating and let finalization validate what we have
                self.dirty.clear();
                break;
            }
            let mut cursor: Option<String> = None;
            loop {
                let next = match &cursor {
                    None => self.dirty.iter().next().cloned(),
                    Some(c) => self
                        .dirty
                        .range::<str, _>((Bound::Excluded(c.as_str()), Bound::Unbounded))
                        .next()
                        .cloned(),
                };
                let Some(key) = next else { break };
                self.dirty.remove(&key);
                self.trace.steps += 1;
                self.step(&key)?;
                cursor = Some(key);
            }
            if self.cz.analysis {
                self.csp_check()?;
            }
        }
        self.trace.rounds += rounds;
        Ok(())
    }

    /// Drains the model's nogood worklist (analysis mode), converting a
    /// violation into the owning package's conflict error.
    fn csp_check(&mut self) -> Result<(), ConcretizeError> {
        if let Err(explanation) = self.csp.propagate() {
            let err = match &explanation.tag {
                Some((name, message)) => {
                    let mut e = ConcretizeError::new(ConcretizeErrorKind::Conflict {
                        name: name.clone(),
                        messages: vec![message.clone()],
                    });
                    if self.nodes.contains_key(name.as_str()) {
                        e = e.with_path(self.path_to(name));
                    }
                    e
                }
                None => ConcretizeError::unsatisfiable(
                    explanation
                        .conflict
                        .clone()
                        .unwrap_or_else(|| "propagation contradiction".to_string()),
                ),
            };
            return Err(err.with_explanation(explanation));
        }
        Ok(())
    }

    /// One worklist visit: apply recipe defaults (once), expand the active
    /// dependencies, and push compiler/target down to children lacking them.
    fn step(&mut self, key: &str) -> Result<(), ConcretizeError> {
        self.touched.insert(key.to_string());
        // 1. apply recipe defaults once
        if !self.nodes[key].defaulted {
            let pkg = self.cz.repo.get(key).expect("nodes have recipes");
            let defaults: Vec<(String, VariantValue)> = pkg
                .variants
                .iter()
                .map(|v| (v.name.clone(), v.default.clone()))
                .collect();
            let node = self.nodes.get_mut(key).unwrap();
            for (name, value) in defaults {
                node.spec.variants.entry(name).or_insert(value);
            }
            node.defaulted = true;
        }

        // 2. expand active dependencies
        let repo: &Repo = self.cz.repo;
        let (active, parent_compiler, parent_target) = {
            let node = &self.nodes[key];
            let pkg = repo.get(key).expect("nodes have recipes");
            (
                pkg.active_dependencies(&node.spec),
                node.spec.compiler.clone(),
                node.spec.target.clone(),
            )
        };
        for dep in active {
            let dep_spec = &dep.spec;
            let dep_name = dep_spec.name_str();
            let child_key = if repo.get(dep_name).is_some() {
                let mut c = dep_spec.clone();
                c.name = Some(dep_name.to_string());
                let actor = format!("recipe `{key}` depends_on `{dep_spec}`");
                self.constrain_node(dep_name, &c, Some(key), &actor)?;
                dep_name.to_string()
            } else if repo.is_virtual(dep_name) {
                let mut c = dep_spec.clone();
                c.name = None;
                self.resolve_provider(dep_name, &c, Some(key))?
            } else {
                let path = self.child_path(Some(key), dep_name);
                return Err(ConcretizeError::new(ConcretizeErrorKind::UnknownPackage {
                    name: dep_name.to_string(),
                })
                .with_path(path));
            };
            let node = self.nodes.get_mut(key).unwrap();
            node.deps.insert(child_key.clone(), child_key);
        }

        // 3. propagate compiler and target to children lacking them
        let child_keys: Vec<String> = self.nodes[key].deps.values().cloned().collect();
        for child in child_keys {
            let node = self.nodes.get_mut(&child).expect("edges point at nodes");
            let mut inherited_compiler = None;
            if node.spec.compiler.is_none() {
                if let Some(c) = &parent_compiler {
                    node.spec.compiler = Some(c.clone());
                    inherited_compiler = Some(c.clone());
                    self.dirty.insert(child.clone());
                    self.touched.insert(child.clone());
                }
            }
            if node.spec.target.is_none() {
                if let Some(t) = &parent_target {
                    node.spec.target = Some(t.clone());
                    self.dirty.insert(child.clone());
                    self.touched.insert(child.clone());
                }
            }
            if let Some(c) = inherited_compiler {
                let keep: Vec<Val> = self
                    .cz
                    .config
                    .compilers
                    .iter()
                    .filter(|e| e.name == c.name && c.versions.contains(&e.version))
                    .map(|e| Val::Name(format!("{}@{}", e.name, e.version)))
                    .collect();
                let compiler_var = self.nodes[&child].compiler_var;
                let _ = self.csp.post(
                    compiler_var,
                    ConstraintKind::KeepOnly(keep),
                    Reason::new(
                        format!("inherited from `{key}`"),
                        format!("requires `%{c}`"),
                    ),
                );
            }
        }
        Ok(())
    }

    /// Any `^virtual` the recipes never asked for becomes a direct edge from
    /// the requesting root.
    fn resolve_unconsumed_pending(&mut self) -> Result<(), ConcretizeError> {
        let unconsumed: Vec<(String, String, Spec)> = self
            .pending
            .iter()
            .filter(|p| !p.consumed)
            .map(|p| (p.root.clone(), p.virtual_name.clone(), p.constraint.clone()))
            .collect();
        for (root, virtual_name, constraint) in unconsumed {
            let provider = self.resolve_provider(&virtual_name, &constraint, Some(&root))?;
            self.nodes
                .get_mut(&root)
                .expect("roots exist")
                .deps
                .insert(provider.clone(), provider);
        }
        for p in self.pending.iter_mut() {
            p.consumed = true;
        }
        Ok(())
    }

    fn check_cycles(&self) -> Result<(), ConcretizeError> {
        // DFS coloring: 0 = white, 1 = gray, 2 = black
        let mut color: BTreeMap<&str, u8> = BTreeMap::new();
        fn dfs<'s>(
            nodes: &'s BTreeMap<String, Node>,
            key: &'s str,
            color: &mut BTreeMap<&'s str, u8>,
        ) -> Result<(), ConcretizeErrorKind> {
            match color.get(key) {
                Some(1) => {
                    return Err(ConcretizeErrorKind::Cycle {
                        through: key.to_string(),
                    })
                }
                Some(2) => return Ok(()),
                _ => {}
            }
            color.insert(key, 1);
            for dep in nodes[key].deps.values() {
                dfs(nodes, dep, color)?;
            }
            color.insert(key, 2);
            Ok(())
        }
        for key in self.nodes.keys() {
            dfs(&self.nodes, key, &mut color).map_err(|kind| {
                let through = match &kind {
                    ConcretizeErrorKind::Cycle { through } => through.clone(),
                    _ => unreachable!("dfs only fails with Cycle"),
                };
                ConcretizeError::new(kind).with_path(self.path_to(&through))
            })?;
        }
        Ok(())
    }

    /// Adopts installed specs that satisfy node constraints (`--reuse`).
    fn adopt_reusable(&mut self) {
        let keys: Vec<String> = self.nodes.keys().cloned().collect();
        for key in keys {
            let node = &self.nodes[&key];
            if node.origin != Origin::Source {
                continue;
            }
            let mut constraint = node.spec.clone();
            constraint.dependencies.clear();
            let adopted = self.cz.config.installed.iter().find_map(|inst| {
                let root = inst.root_node();
                (root.spec.name.as_deref() == Some(key.as_str())
                    && inst.to_spec().satisfies(&constraint))
                .then(|| root.spec.clone())
            });
            if let Some(spec) = adopted {
                let node = self.nodes.get_mut(&key).unwrap();
                node.spec = spec;
                node.origin = Origin::Reused;
            }
        }
    }

    fn finalize(&mut self) -> Result<(), ConcretizeError> {
        let keys: Vec<String> = self.nodes.keys().cloned().collect();
        for key in keys {
            self.finalize_node(&key)?;
        }
        Ok(())
    }

    /// Re-finalizes only the keys touched by an incremental edit; untouched
    /// nodes adopt their already-finalized specs from the base solve.
    fn finalize_incremental(
        &mut self,
        touched: &BTreeSet<String>,
        finalized: &BTreeMap<String, Node>,
    ) -> Result<(), ConcretizeError> {
        let keys: Vec<String> = self.nodes.keys().cloned().collect();
        for key in keys {
            if touched.contains(&key) {
                self.finalize_node(&key)?;
            } else if let Some(done) = finalized.get(&key) {
                let node = self.nodes.get_mut(&key).expect("keys are node keys");
                node.spec = done.spec.clone();
                node.origin = done.origin.clone();
                node.deps = done.deps.clone();
            } else {
                self.finalize_node(&key)?;
            }
        }
        Ok(())
    }

    /// Fills one node's remaining choice points — external adoption, then
    /// version / compiler / target from the most-preferred surviving domain
    /// values — and validates its conflicts.
    fn finalize_node(&mut self, key: &str) -> Result<(), ConcretizeError> {
        if self.nodes[key].origin == Origin::Reused {
            return Ok(());
        }
        let repo: &Repo = self.cz.repo;
        let pkg = repo.get(key).expect("nodes have recipes");

        // externals first: adopting one pins version and variants
        let external = self
            .cz
            .config
            .externals_for(key)
            .iter()
            .find(|e| {
                let mut probe = self.nodes[key].spec.clone();
                probe.dependencies.clear();
                probe.constrain(&e.spec).is_ok()
            })
            .cloned();
        match external {
            Some(ext) => {
                let node = self.nodes.get_mut(key).unwrap();
                if let Err(e) = node.spec.constrain(&ext.spec) {
                    return Err(
                        ConcretizeError::unsatisfiable(e.to_string()).with_path(self.path_to(key))
                    );
                }
                // pin the external's version exactly
                if let Some(v) = ext.spec.versions.highest_mentioned().cloned() {
                    node.spec.versions = VersionConstraint::exactly(v.clone());
                    let version_var = node.version_var;
                    self.csp.reset(
                        version_var,
                        vec![Val::Version(v.clone())],
                        Reason::new(
                            format!("external `{}`", ext.prefix),
                            format!("pins `@={v}`"),
                        ),
                    );
                }
                // externals bring no build-time dependency edges
                let node = self.nodes.get_mut(key).unwrap();
                node.deps.clear();
                node.origin = Origin::External { prefix: ext.prefix };
            }
            None => {
                if !self.cz.config.buildable(key) {
                    return Err(ConcretizeError::new(ConcretizeErrorKind::NotBuildable {
                        name: key.to_string(),
                    })
                    .with_path(self.path_to(key)));
                }
                // version: the domain already holds exactly the admitted
                // declared versions, site preferences first; a user-pinned
                // exact version outside the declared list survives as the
                // accumulated constraint's concrete value
                let node_versions = self.nodes[key].spec.versions.clone();
                let version_var = self.nodes[key].version_var;
                let chosen = match self.csp.first(version_var) {
                    Some(Val::Version(v)) => Some(v.clone()),
                    _ => node_versions.concrete().cloned(),
                };
                let Some(version) = chosen else {
                    return Err(ConcretizeError::new(ConcretizeErrorKind::NoVersion {
                        name: key.to_string(),
                        constraint: node_versions.to_string(),
                    })
                    .with_path(self.path_to(key))
                    .with_explanation(Box::new(self.csp.explain(version_var))));
                };
                if self.cz.analysis {
                    let _ = self.csp.assign(
                        version_var,
                        &Val::Version(version.clone()),
                        Reason::new("decision", format!("selected `@={version}`")),
                    );
                }
                let node = self.nodes.get_mut(key).unwrap();
                node.spec.versions = VersionConstraint::exactly(version);
            }
        }

        // compiler: the domain holds the site entries surviving every
        // requirement, in site preference order
        let node_compiler = self.nodes[key].spec.compiler.clone();
        let compiler_var = self.nodes[key].compiler_var;
        let chosen_compiler = match &node_compiler {
            Some(c) => {
                let found = self.cz.config.find_compiler(c).ok_or_else(|| {
                    ConcretizeError::new(ConcretizeErrorKind::NoCompiler {
                        requested: c.to_string(),
                    })
                    .with_path(self.path_to(key))
                    .with_explanation(Box::new(self.csp.explain(compiler_var)))
                })?;
                CompilerSpec::new(
                    &found.name,
                    VersionConstraint::exactly(found.version.clone()),
                )
            }
            None => {
                let default = self.cz.config.default_compiler().ok_or_else(|| {
                    ConcretizeError::new(ConcretizeErrorKind::NoCompiler {
                        requested: "<site default>".to_string(),
                    })
                    .with_path(self.path_to(key))
                })?;
                CompilerSpec::new(
                    &default.name,
                    VersionConstraint::exactly(default.version.clone()),
                )
            }
        };
        if self.cz.analysis {
            let _ = self.csp.assign(
                compiler_var,
                &Val::Name(chosen_compiler.to_string()),
                Reason::new("decision", format!("selected `%{chosen_compiler}`")),
            );
        }
        // target
        let target = self.nodes[key]
            .spec
            .target
            .clone()
            .unwrap_or_else(|| self.cz.config.default_target.clone());
        {
            let node = self.nodes.get_mut(key).unwrap();
            node.spec.compiler = Some(chosen_compiler);
            node.spec.target = Some(target);
        }

        // keep variant decisions in the model so analysis-mode nogoods see
        // the final assignment
        if self.cz.analysis {
            let assignments: Vec<(VarId, VariantValue)> = self.nodes[key]
                .variant_vars
                .iter()
                .filter_map(|(name, &var)| {
                    self.nodes[key]
                        .spec
                        .variants
                        .get(name)
                        .map(|v| (var, v.clone()))
                })
                .collect();
            for (var, value) in assignments {
                let _ = self.csp.post(
                    var,
                    ConstraintKind::VariantIs(value.clone()),
                    Reason::new("decision", format!("selected `{value}`")),
                );
            }
        }

        // conflicts
        let violations = pkg.violated_conflicts(&self.nodes[key].spec);
        if !violations.is_empty() {
            let mut err = ConcretizeError::new(ConcretizeErrorKind::Conflict {
                name: key.to_string(),
                messages: violations,
            })
            .with_path(self.path_to(key));
            if self.cz.analysis {
                if let Err(explanation) = self.csp.propagate() {
                    err = err.with_explanation(explanation);
                }
            }
            return Err(err);
        }
        Ok(())
    }

    /// Extracts the concrete DAG reachable from `root_key`.
    fn extract(&self, root_key: &str) -> Result<ConcreteSpec, ConcretizeError> {
        self.extract_with(root_key, |_| None)
    }

    /// Incremental extraction: nodes outside the touched set's ancestor
    /// closure keep their base-solve entries (including content hashes).
    fn extract_incremental(
        &self,
        root_key: &str,
        touched: &BTreeSet<String>,
        base: &ConcreteSpec,
    ) -> Result<ConcreteSpec, ConcretizeError> {
        // a node's hash covers its whole subtree, so invalidation flows up:
        // dirty = touched plus every ancestor of a touched node
        let mut parents: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (key, node) in &self.nodes {
            for dep in node.deps.values() {
                parents.entry(dep.as_str()).or_default().push(key.as_str());
            }
        }
        let mut dirty: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = touched.iter().map(|k| k.as_str()).collect();
        while let Some(key) = stack.pop() {
            if dirty.insert(key) {
                if let Some(ps) = parents.get(key) {
                    stack.extend(ps.iter().copied());
                }
            }
        }
        self.extract_with(root_key, |key| {
            if dirty.contains(key) {
                None
            } else {
                base.nodes.get(key).cloned()
            }
        })
    }

    fn extract_with(
        &self,
        root_key: &str,
        cached: impl Fn(&str) -> Option<ConcreteNode>,
    ) -> Result<ConcreteSpec, ConcretizeError> {
        if !self.nodes.contains_key(root_key) {
            return Err(ConcretizeError::new(ConcretizeErrorKind::UnknownPackage {
                name: root_key.to_string(),
            }));
        }
        // hashes in dependency-first order
        let mut hashes: BTreeMap<String, String> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        fn topo(
            nodes: &BTreeMap<String, Node>,
            key: &str,
            seen: &mut BTreeSet<String>,
            order: &mut Vec<String>,
        ) {
            if !seen.insert(key.to_string()) {
                return;
            }
            for dep in nodes[key].deps.values() {
                topo(nodes, dep, seen, order);
            }
            order.push(key.to_string());
        }
        let mut seen = BTreeSet::new();
        topo(&self.nodes, root_key, &mut seen, &mut order);

        let mut nodes = BTreeMap::new();
        for key in &order {
            if let Some(done) = cached(key) {
                hashes.insert(key.clone(), done.hash.clone());
                nodes.insert(key.clone(), done);
                continue;
            }
            let node = &self.nodes[key];
            let mut hash_input = node.spec.short();
            for (dep_name, dep_key) in &node.deps {
                hash_input.push_str(dep_name);
                hash_input.push('=');
                hash_input.push_str(&hashes[dep_key]);
                hash_input.push(';');
            }
            let hash = content_hash(&hash_input);
            hashes.insert(key.clone(), hash.clone());
            let mut spec = node.spec.clone();
            spec.dependencies.clear();
            nodes.insert(
                key.clone(),
                ConcreteNode {
                    spec,
                    deps: node.deps.clone(),
                    provides: node.provides.clone(),
                    origin: node.origin.clone(),
                    hash,
                },
            );
        }
        Ok(ConcreteSpec {
            root: root_key.to_string(),
            nodes,
        })
    }
}
