//! Instruction-level reference oracles for the node-level optimizer
//! passes: Table 2 redundancy ([`rae`]) and the Table 3 flush ([`flush`]),
//! solved over one program point per instruction the way the paper states
//! them.

#![allow(dead_code)]

pub mod flush;
pub mod rae;
