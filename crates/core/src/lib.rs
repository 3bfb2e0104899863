//! Core of the reproduction: the control-theoretic streaming model and the
//! MPC family of bitrate controllers.
//!
//! * [`model`] — the buffer dynamics of Eqs. (1)–(4): download time,
//!   rebuffering, buffer-full waiting, and the resulting buffer update;
//! * [`controller`] — the controller interface of Eq. (12):
//!   `R_k = f(B_k, Ĉ, {R_i, i < k})`, shared by every algorithm in this
//!   workspace (MPC here, the RB/BB/FESTIVE/dash.js baselines in
//!   `abr-baselines`, FastMPC in `abr-fastmpc`);
//! * [`mdp`] — the Markov-decision-process alternative the paper discusses
//!   in Section 4.1 and defers to future work: a throughput Markov chain
//!   fitted from traces, value iteration, and a stationary-policy
//!   controller (used by the harness's ablation experiment);
//! * [`mpc`] — the receding-horizon optimizer (Algorithm 1): exact QoE
//!   maximization over the next `N` chunks with branch-and-bound plan
//!   enumeration, the RobustMPC variant of Section 4.3 (Theorem 1:
//!   worst-case QoE over a throughput interval is attained at the lower
//!   bound, so RobustMPC is MPC driven by the lower bound), and the
//!   startup-phase variant that additionally optimizes the startup delay
//!   `T_s`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod mdp;
pub mod model;
pub mod mpc;

pub use controller::{BitrateController, ControllerContext, Decision};
pub use mdp::{MdpConfig, MdpController, MdpPolicy, ThroughputChain};
pub use model::{advance_buffer, BufferStep, StreamModel};
pub use mpc::{
    live_effective_horizon, optimize_first_with, optimize_horizon, plan_qoe, HorizonPlan,
    HorizonScratch, Mpc, MpcConfig,
};
