(** The flight recorder: a crash-safe binary event journal.

    A journal persists a machine's complete {!Trace} event stream so runs
    can be analyzed (queried, critical-pathed, diffed, re-exported) after
    the process that produced them is gone. The offline engines ({!Query},
    {!Critical}, {!Diff}, the CLI's export command) are
    all {!replay}s: one decode pass that re-emits each stream into an
    emitter carrying the same live sinks a running machine would use.

    {2 On-disk format (DESIGN.md §16)}

    A file is a magic string followed by a sequence of CRC-framed frames:

    {v
    "EJRN1\n"
    frame := tag[4] payload_len[u32 LE] crc32[u32 LE] payload
    "HEAD" — version, free-form metadata pairs, and the self-describing
             intern tables (kind / phase / domain wire names)
    "SEGM" — base_ts, event count, then the delta-encoded event stream
    "END " — segment, event and stream totals (the finalization mark)
    v}

    Events are varint-encoded deltas: one kind byte (the dense
    {!Trace.index}), a zigzag varint timestamp delta against the previous
    event, and a zigzag varint argument delta against the previous argument
    {e of the same kind} (EMC latencies and repeated addresses collapse to
    one or two bytes). Machine names are interned: a [def-stream] opcode
    binds an id to a name once, a [set-stream] opcode switches the current
    stream, and plain events carry no stream byte at all — the single-
    machine common case pays nothing.

    Segments are sealed (framed, CRC'd, written, flushed) when the encoder
    buffer crosses the size threshold, so a killed process leaves every
    sealed segment on disk and parseable; only the unsealed tail is lost.
    The write path is allocation-free in steady state: events encode into a
    preallocated buffer and emission never advances the virtual clock. *)

module Writer : sig
  type t

  val create :
    ?segment_bytes:int -> ?meta:(string * string) list -> path:string ->
    unit -> t
  (** Open [path] (truncating) and write the HEAD frame. [segment_bytes]
      (default 65536) is the seal threshold; [meta] is free-form key/value
      context ("workload", "setting", ...) persisted in the header. *)

  val stream : t -> machine:string -> int
  (** Intern [machine], returning its stream id (idempotent per name). *)

  val attach : ?machine:string -> t -> Emitter.t -> unit
  (** Subscribe to an emitter: every event it emits is recorded under
      [machine] (default ["m<N>"] for the N-th attached emitter), and an
      emitter finalizer closes the journal so abnormal exits still leave a
      sealed, parseable file. One writer may record several emitters. *)

  val record : t -> stream:int -> Trace.kind -> ts:int -> arg:int -> unit
  (** Append one event. Allocation-free in steady state (0 minor words per
      event between seals). Events recorded after {!close} are dropped. *)

  val events : t -> int
  val segments : t -> int
  (** Sealed segments written so far. *)

  val close : t -> now:int -> unit
  (** Seal the partial segment, write the END frame and close the file.
      Idempotent. [now] is recorded as the journal's final timestamp. *)
end

type event = {
  stream : int;         (** Interned machine id ({!info.machines}). *)
  kind : Trace.kind;
  ts : int;
  arg : int;
}

type info = {
  version : int;
  meta : (string * string) list;
  machines : (int * string) list;  (** Stream id -> interned name. *)
  events : int;                    (** Events decoded. *)
  segments : int;                  (** Sealed segments read. *)
  complete : bool;                 (** END frame present and consistent. *)
  last_ts : int;                   (** Final timestamp (END frame or last
                                       decoded event; 0 when empty). *)
}

val fold :
  ?strict:bool -> path:string -> init:'a -> ('a -> event -> 'a) ->
  ('a * info, string) result
(** Stream every event of a journal through [f] without materializing the
    file. Corruption — a bad magic/tag, a CRC mismatch, an undecodable
    payload (an overlong varint, a string past the payload, a stream used
    before its definition), data after END — is always an [Error] naming
    the frame and offset; file contents never make the reader raise. A
    file that simply stops mid-frame (the writer was killed) is readable
    up to the last sealed segment with [complete = false] by default;
    [strict] (default false) turns that truncated tail into an [Error]
    too. *)

val read :
  ?strict:bool -> path:string -> unit -> (event list * info, string) result
(** Materializing convenience over {!fold} (tests, small files). *)

val replay :
  path:string -> (machine:string -> Emitter.t) -> (info, string) result
(** One decode pass that re-emits every stream's events, in file order,
    into the emitter returned for that stream. The function is called once
    per stream, when the stream is first defined, so the machine name is
    known before its first event. On success each stream's emitter is then
    finalized ({!Emitter.finalize}) at that stream's last timestamp, in
    stream-definition order — the same close a live run performs. Errors
    as {!fold}. *)
