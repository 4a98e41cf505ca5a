(** LMBench-style system microbenchmarks (Fig. 8 of the paper). Each runs as
    a *non-sandboxed* normal program, because what Fig. 8 measures is the
    system-wide cost of Erebor's interposition and MMU delegation on
    ordinary kernel work. *)

type bench = {
  bench_name : string;
  iterations : int;
  prepare_pages : int;  (** Working-set pages the benchmark needs mapped. *)
  op : Sim.Machine.ops -> unit;
}

val benches : bench list
(** In Fig. 8 order: null-syscall, read, write, signal, mmap, pagefault,
    fork. *)

val spec_of : bench -> Sim.Machine.spec
(** The session a bench runs in: a non-sandboxed task with
    [prepare_pages] populated pages, a 1 kHz timer, and [iterations] calls
    of [op] as its body. *)

type result = {
  name : string;
  setting : Sim.Config.setting;
  avg_cycles : float;      (** Mean latency of one operation. *)
  emc_per_sec : float;
  ops_per_sec : float;
}

val run : setting:Sim.Config.setting -> bench -> result

val overhead : bench -> float * result * result
(** (erebor_avg / native_avg, native, erebor). *)
