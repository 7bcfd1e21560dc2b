//! Core-layer errors, including the Definition 7 rewritability explainer.

use std::fmt;

use conquer_engine::{EngineError, ErrorKind};
use conquer_sql::{render_snippet, Span};

/// Which clause of the rewritable class (Definition 7), or which of its
/// SPJ-shape preconditions, a query violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Def7Clause {
    /// Precondition: the statement must be a plain select-project-join
    /// query — no DISTINCT, grouping, HAVING or aggregates.
    SpjShape,
    /// Precondition: every FROM relation needs identifier/probability
    /// metadata in the [`crate::DirtySpec`].
    DirtyMetadata,
    /// Precondition: join predicates must be simple column equalities.
    EquiJoins,
    /// Condition 1: every join involves the identifier of at least one of
    /// the joined relations.
    JoinsUseIdentifiers,
    /// Condition 2: the join graph is a rooted tree.
    GraphIsTree,
    /// Condition 3: no relation appears twice in FROM (no self-joins).
    NoSelfJoins,
    /// Condition 4: the identifier of the root relation appears in the
    /// select clause.
    RootIdProjected,
}

impl Def7Clause {
    /// Short human-readable citation of the violated clause.
    pub fn title(self) -> &'static str {
        match self {
            Def7Clause::SpjShape => "precondition: plain select-project-join shape",
            Def7Clause::DirtyMetadata => "precondition: dirty metadata for every relation",
            Def7Clause::EquiJoins => "precondition: joins are column equalities",
            Def7Clause::JoinsUseIdentifiers => "condition 1: every join involves an identifier",
            Def7Clause::GraphIsTree => "condition 2: the join graph is a tree",
            Def7Clause::NoSelfJoins => "condition 3: no self-joins",
            Def7Clause::RootIdProjected => "condition 4: the root identifier is projected",
        }
    }
}

impl fmt::Display for Def7Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.title())
    }
}

/// One node of the rewritability reason tree: a violated clause of
/// Definition 7, where in the source it happened, and any finer-grained
/// sub-reasons.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteObstacle {
    /// The clause of Definition 7 this obstacle violates.
    pub clause: Def7Clause,
    /// What exactly is wrong, naming the offending relations/columns.
    pub message: String,
    /// Source span of the offending fragment ([`Span::NONE`] when the
    /// obstacle concerns the query as a whole).
    pub span: Span,
    /// Finer-grained sub-obstacles (e.g. each structural defect that keeps
    /// the join graph from being a tree).
    pub children: Vec<RewriteObstacle>,
}

impl RewriteObstacle {
    /// A leaf obstacle with no span.
    pub fn new(clause: Def7Clause, message: impl Into<String>) -> Self {
        RewriteObstacle {
            clause,
            message: message.into(),
            span: Span::NONE,
            children: Vec::new(),
        }
    }

    /// Attach the source span of the offending fragment.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Attach a finer-grained sub-obstacle.
    pub fn with_child(mut self, child: RewriteObstacle) -> Self {
        self.children.push(child);
        self
    }
}

/// Why a query falls outside the rewritable class of Definition 7: a tree
/// of [`RewriteObstacle`]s, each citing the violated clause and (where
/// known) the source span of the offending fragment.
///
/// Unlike a fail-fast error, the checker collects *every* top-level
/// obstacle it can see, so one round of fixes can address them all —
/// typically by adding the root identifier to the select clause, as the
/// paper suggests.
#[derive(Debug, Clone, PartialEq)]
pub struct NotRewritable {
    /// The top-level obstacles, in source order.
    pub obstacles: Vec<RewriteObstacle>,
}

impl NotRewritable {
    /// Wrap a collection of obstacles (callers ensure it is non-empty).
    pub fn new(obstacles: Vec<RewriteObstacle>) -> Self {
        NotRewritable { obstacles }
    }

    /// A single-obstacle reason with no span.
    pub fn because(clause: Def7Clause, message: impl Into<String>) -> Self {
        NotRewritable {
            obstacles: vec![RewriteObstacle::new(clause, message)],
        }
    }

    /// Does any obstacle (at any depth) violate `clause`?
    pub fn violates(&self, clause: Def7Clause) -> bool {
        fn walk(o: &RewriteObstacle, clause: Def7Clause) -> bool {
            o.clause == clause || o.children.iter().any(|c| walk(c, clause))
        }
        self.obstacles.iter().any(|o| walk(o, clause))
    }

    /// Render the reason tree, optionally with caret snippets against the
    /// original SQL for every obstacle that carries a span.
    pub fn render_tree(&self, sql: Option<&str>) -> String {
        let mut out = String::from("query is outside the rewritable class (Definition 7):\n");
        for (i, o) in self.obstacles.iter().enumerate() {
            render_obstacle(o, "", i + 1 == self.obstacles.len(), sql, &mut out);
        }
        out.pop(); // trailing newline
        out
    }
}

fn render_obstacle(
    o: &RewriteObstacle,
    indent: &str,
    last: bool,
    sql: Option<&str>,
    out: &mut String,
) {
    let branch = if last { "└─ " } else { "├─ " };
    out.push_str(indent);
    out.push_str(branch);
    out.push_str(&format!("[{}] {}\n", o.clause.title(), o.message));
    let child_indent = format!("{indent}{}", if last { "   " } else { "│  " });
    if let Some(src) = sql {
        if !o.span.is_none() {
            for line in render_snippet(src, o.span).lines() {
                out.push_str(&child_indent);
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    for (i, c) in o.children.iter().enumerate() {
        render_obstacle(c, &child_indent, i + 1 == o.children.len(), sql, out);
    }
}

impl fmt::Display for NotRewritable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_tree(None))
    }
}

impl std::error::Error for NotRewritable {}

/// Errors raised by clean-answer machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The underlying engine failed (parse, bind, execute).
    Engine(EngineError),
    /// The query is not in the rewritable class.
    NotRewritable(NotRewritable),
    /// The dirty database violates Definition 2 (bad identifier/probability
    /// columns, cluster probabilities that do not sum to 1, …).
    InvalidDirty(String),
    /// Naive evaluation would enumerate more candidates than allowed.
    TooManyCandidates {
        /// How many candidate databases the dirty database induces.
        candidates: u128,
        /// The configured enumeration limit.
        limit: u128,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::NotRewritable(r) => write!(f, "query is not rewritable: {r}"),
            CoreError::InvalidDirty(m) => write!(f, "invalid dirty database: {m}"),
            CoreError::TooManyCandidates { candidates, limit } => write!(
                f,
                "naive evaluation requires {candidates} candidate databases, \
                 which exceeds the limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Engine(e) => Some(e),
            CoreError::NotRewritable(r) => Some(r),
            _ => None,
        }
    }
}

impl CoreError {
    /// The stable [`ErrorKind`] of this error, whichever layer produced
    /// it. This is the supported way for servers and clients to map
    /// errors to wire codes or retry policies — never match on `Display`
    /// strings.
    pub fn kind(&self) -> ErrorKind {
        match self {
            CoreError::Engine(e) => e.kind(),
            CoreError::NotRewritable(_) => ErrorKind::NotRewritable,
            CoreError::InvalidDirty(_) => ErrorKind::InvalidDirty,
            CoreError::TooManyCandidates { .. } => ErrorKind::ResourceExhausted,
        }
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<NotRewritable> for CoreError {
    fn from(e: NotRewritable) -> Self {
        CoreError::NotRewritable(e)
    }
}

impl From<conquer_sql::ParseError> for CoreError {
    fn from(e: conquer_sql::ParseError) -> Self {
        CoreError::Engine(EngineError::Parse(e))
    }
}

impl From<conquer_storage::StorageError> for CoreError {
    fn from(e: conquer_storage::StorageError) -> Self {
        CoreError::Engine(EngineError::Storage(e))
    }
}
