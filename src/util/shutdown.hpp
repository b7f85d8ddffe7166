// Cooperative shutdown flag for SIGINT/SIGTERM (DESIGN.md §11).
//
// A scan that dies mid-checkpoint-write corrupts nothing (writes are atomic
// temp+rename), but it loses everything since the last boundary. Installing
// these handlers turns both signals into a request the study loop honours
// at the next round boundary: the session checkpoints and exits cleanly.
//
// The handler only sets a volatile sig_atomic_t — async-signal-safe by
// construction.
#pragma once

namespace spfail::util {

// Install SIGINT + SIGTERM handlers that set the shutdown flag. Idempotent.
void install_shutdown_handlers();

// True once a handled signal arrived (or request_shutdown was called).
bool shutdown_requested() noexcept;

// Programmatic equivalents, for tests.
void request_shutdown() noexcept;
void clear_shutdown() noexcept;

}  // namespace spfail::util
