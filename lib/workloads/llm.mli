(** LLM inference service (llama.cpp in the paper, Table 5): a character
    n-gram language model standing in for the transformer — small enough to
    run for real, shaped the same way (a large read-only model shared across
    sandboxes, a per-client mutable KV-cache-like state). *)

module Model : sig
  type t

  val train : order:int -> string -> t
  (** Character n-gram counts of a corpus. *)

  val generate : t -> rng:Crypto.Drbg.t -> prompt:string -> n:int -> string
  (** Sample [n] characters continuing [prompt]. *)

  val contexts : t -> int
end

val default_model : Model.t

val profile : Workload.profile
(** llama.cpp per Table 5/6: ~5 GB common model, 256 MB+ confined KV cache,
    8 threads, 52.85 s, heavy synchronization. *)

val spec : unit -> Sim.Machine.spec
(** Full workload: the real model answers the client prompt, the profile
    drives the system-event stream. *)
