(** Decoded-instruction cache and threaded-dispatch interpreter.

    {!Isa.decode} re-materializes a constructor (plus the [option] box and
    operand payloads) on every call, which is fine for one-shot scans but
    far too expensive — in both time and minor-heap churn — for code that
    *executes*, such as the monitor gate's Fig. 5 entry/exit sequence,
    which [Erebor.Gate.create] runs once as a self-check. This module
    decodes a code blob exactly once into a flat [int array] (one packed
    word per instruction slot) and runs it with a jump-table dispatch loop
    over the dense tags. A warm program executes with zero allocation, and
    identical byte strings share one decoded program through a
    content-keyed cache, so the 25 machines of a Fig. 9 sweep decode the
    gate listing once between them.

    Execution is a *retirement* model, not a second semantics domain: it
    walks the program (registers, scratch memory, call stack, direct
    branches) and counts retired instructions, leaving all architectural
    side effects — privilege, MSRs, page tables — to the simulator proper.
    Running a program never advances the virtual clock, so calibrated
    outputs are unaffected by who executes through the cache. *)

type program

val decode : bytes -> (program, int) result
(** Decode every aligned 4-byte slot. [Error off] is the byte offset of the
    first slot {!Isa.decode} rejects. Always decodes fresh; see
    {!of_bytes} for the caching entry point. *)

val of_bytes : bytes -> (program, int) result
(** Content-keyed decode-once cache: identical byte strings return the
    same decoded program without re-decoding. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!of_bytes} since program start. *)

val length : program -> int
(** Number of instruction slots. *)

val instr : program -> int -> Isa.instr
(** Re-materialize slot [i] as an {!Isa.instr} (allocates; for tests and
    disassembly, not the execution path). *)

(** Mutable interpreter state, preallocated so steady-state runs allocate
    nothing: eight registers, a small word-addressed scratch memory, and a
    bounded call stack. *)
type state

val make_state : unit -> state

val set_sensitive_hook : state -> (int -> unit) -> unit
(** Called with the {!Isa} opcode byte each time a sensitive instruction
    retires (default: ignore). *)

val reg : state -> int -> int
(** Register file readback (for tests). *)

val run : program -> state -> entry:int -> fuel:int -> int
(** Execute from instruction slot [entry] until a top-level [Ret], an
    out-of-range branch, or [fuel] retired instructions; returns the
    retired count. A [Call] whose target lies outside the program models
    dispatch to an external service: it retires and falls through. Never
    allocates and never touches the virtual clock. *)

val run_undecoded : bytes -> state -> entry:int -> fuel:int -> int
(** Reference interpreter with the pre-cache shape: {!Isa.decode} on every
    step. Semantically identical to {!run} on the decoded form — kept as
    the baseline the microbenchmark and equivalence tests compare
    against. *)
