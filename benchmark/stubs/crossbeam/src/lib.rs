//! Std-only stand-in for the part of `crossbeam` that the psc crates
//! use: scoped threads whose closures take the scope as an argument
//! ([`thread`]) and a bounded multi-producer multi-consumer channel
//! ([`channel`]). Behaviour the callers rely on — a panic in a scoped
//! thread comes back as `Err` from `join`, a channel disconnects when
//! the last endpoint of one side drops — is pinned by the tests in each
//! module. Scheduling and wake-up cost are std's (`std::thread::scope`,
//! `Mutex` + `Condvar`), not crossbeam's, which a benchmark record
//! built on this stub has to say.

pub mod channel;
pub mod thread;
