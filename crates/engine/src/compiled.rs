//! The immutable half of an engine: everything derived from the source text
//! alone, compiled once and shared by every engine instantiated from it.
//!
//! PSM-E runs one control process and k match processes over "a single
//! shared Rete network", and compiles RHSs "once, at load time" (§3, §3.3).
//! [`CompiledProgram`] is that load-time product: the parsed program, the
//! Rete network, the RHS threaded code and each production's specificity.
//! It is `Send + Sync` and never mutated after construction, so one
//! `Arc<CompiledProgram>` can back any number of engines on any threads.
//!
//! What stays per engine is what a run mutates: a clone of the symbol and
//! class tables (an engine interns symbols and auto-extends class layouts
//! as it runs), the matcher's memories, working memory and the conflict
//! set. Symbol ids agree between the shared network and every engine
//! because each engine's table is a clone of the parse-time table and only
//! ever appends to it: an id the network or the RHS code mentions means the
//! same name in all of them.

use crate::rhs::{self, RhsProgram};
use ops5::{Program, Result};
use rete::network::Network;
use rete::NetworkOptions;
use std::sync::Arc;

/// A parsed program plus everything compiled from it. Construct with
/// [`CompiledProgram::compile`]; instantiate engines from it with
/// [`EngineBuilder::from_compiled`](crate::EngineBuilder::from_compiled).
#[derive(Debug)]
pub struct CompiledProgram {
    program: Program,
    net: Arc<Network>,
    pub(crate) rhs: Arc<[RhsProgram]>,
    /// Conflict resolution's tie-breaker, per production.
    pub(crate) specificity: Box<[u32]>,
}

// One artefact is shared across pool workers and reactor threads.
const _: fn() = || {
    fn ok<T: Send + Sync>() {}
    ok::<CompiledProgram>()
};

impl CompiledProgram {
    /// Compiles the Rete network (with `options`) and every production's
    /// RHS. This is the only place either compiler is invoked on behalf of
    /// an engine.
    pub fn compile(program: Program, options: NetworkOptions) -> Result<CompiledProgram> {
        let net = Arc::new(Network::compile_with(&program, options)?);
        let rhs = program
            .productions
            .iter()
            .map(|p| rhs::compile_rhs(p, &program.symbols, |c| program.classes.arity(c)))
            .collect::<Result<Arc<[RhsProgram]>>>()?;
        Ok(CompiledProgram {
            specificity: crate::cr::specificities(&program.productions),
            program,
            net,
            rhs,
        })
    }

    /// The program as parsed: the tables every engine starts from.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    pub(crate) fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// The options the network was compiled with.
    pub fn options(&self) -> NetworkOptions {
        self.net.options
    }
}
