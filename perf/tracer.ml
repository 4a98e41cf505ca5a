(* Host-time attribution for traced runs. The tracer is an ordinary sink on
   each machine's emitter: at every Span_begin/Span_end the simulator
   already emits it reads the monotonic clock and charges the interval
   since the previous stamp to the innermost open span, so each layer gets
   its self time. The benchmark's own spans around [Machine.create] and
   [Machine.run] nest the same way, and time inside an item that no span
   covers is charged to [outside]. It also counts events per kind and the
   virtual cycles the traced machines ran. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())

let n_phases = Obs.Trace.n_phases
let sim_create = n_phases
let sim_run = n_phases + 1
let outside = n_phases + 2
let n_slots = n_phases + 3

type t = {
  stack : int array;
  mutable depth : int;
  mutable last : int;
  self_ns : int array;  (** Per slot, since {!create}. *)
  spans : int array;
  touches : int array;  (** Stamps charged to each slot, see {!net_self_ns}. *)
  kinds : int array;    (** Events per {!Obs.Trace.index}. *)
  mutable channel_bytes : int;
  mutable cycles : int;  (** Virtual cycles of every traced machine. *)
  mutable item_ns : int array;  (** The open item's self time per slot. *)
}

let create () =
  {
    stack = Array.make 256 outside;
    depth = 0;
    last = 0;
    self_ns = Array.make n_slots 0;
    spans = Array.make n_slots 0;
    touches = Array.make n_slots 0;
    kinds = Array.make Obs.Trace.n_kinds 0;
    channel_bytes = 0;
    cycles = 0;
    item_ns = Array.make n_slots 0;
  }

let top t = if t.depth = 0 then outside else t.stack.(t.depth - 1)

(* A boundary charges the interval since the previous stamp to the slot
   that was open. Each stamp's own cost falls half before and half after
   the clock read, so the slots on both sides are marked as touched. *)
let charge t =
  let stamp = now () in
  let s = top t in
  let dt = stamp - t.last in
  t.self_ns.(s) <- t.self_ns.(s) + dt;
  t.item_ns.(s) <- t.item_ns.(s) + dt;
  t.touches.(s) <- t.touches.(s) + 1;
  t.last <- stamp

let touch_top t =
  let s = top t in
  t.touches.(s) <- t.touches.(s) + 1

let begin_span t slot =
  charge t;
  if t.depth < Array.length t.stack then begin
    t.stack.(t.depth) <- slot;
    t.depth <- t.depth + 1;
    t.spans.(slot) <- t.spans.(slot) + 1
  end;
  touch_top t

let end_span t =
  charge t;
  if t.depth > 0 then t.depth <- t.depth - 1;
  touch_top t

let span t slot f =
  begin_span t slot;
  Fun.protect ~finally:(fun () -> end_span t) f

let channel_send = Obs.Trace.index Obs.Trace.Channel_send
let channel_recv = Obs.Trace.index Obs.Trace.Channel_recv

(* Attach to one machine's emitter. The emitter's timestamps are that
   machine's virtual clock, which starts at zero. *)
let attach t obs =
  let hi = ref 0 in
  Obs.Emitter.attach obs (fun kind ~ts ~arg ->
      let k = Obs.Trace.index kind in
      t.kinds.(k) <- t.kinds.(k) + 1;
      if k = channel_send || k = channel_recv then
        t.channel_bytes <- t.channel_bytes + arg;
      if ts > !hi then begin
        t.cycles <- t.cycles + (ts - !hi);
        hi := ts
      end;
      match kind with
      | Obs.Trace.Span_begin p -> begin_span t (Obs.Trace.phase_index p)
      | Obs.Trace.Span_end _ -> end_span t
      | _ -> ())

(* Item bracketing: [start_item] opens the [outside] interval, [end_item]
   closes it and returns the item's per-slot self time. *)
let start_item t =
  t.depth <- 0;
  t.item_ns <- Array.make n_slots 0;
  t.last <- now ()

let end_item t =
  charge t;
  t.item_ns

(* The cost of one stamp: a begin/end pair through a bare emitter carrying
   only this sink, median of five batches. *)
let calibrate_stamp_ns () =
  let probe = create () in
  let obs = Obs.Emitter.create () in
  attach probe obs;
  let b = Obs.Trace.span_begin Obs.Trace.Run and e = Obs.Trace.span_end Obs.Trace.Run in
  let n = 100_000 in
  let batch () =
    start_item probe;
    let t0 = now () in
    for _ = 1 to n do
      Obs.Emitter.emit obs b ~ts:0 ~arg:0;
      Obs.Emitter.emit obs e ~ts:0 ~arg:0
    done;
    float_of_int (now () - t0) /. float_of_int (2 * n)
  in
  ignore (batch ());
  Stats.median (List.init 5 (fun _ -> batch ()))

(* Self time with the stamps' own cost taken out: half a stamp for every
   boundary at which the slot was open before or after. *)
let net_self_ns t ~stamp_ns slot =
  Float.max 0.0
    (float_of_int t.self_ns.(slot) -. (float_of_int t.touches.(slot) *. stamp_ns /. 2.0))

let slot_name slot =
  if slot < n_phases then Metrics.phase_layer (Obs.Trace.phase_of_index slot)
  else if slot = sim_create then "sim.create"
  else if slot = sim_run then "sim.run"
  else "bench.outside"
