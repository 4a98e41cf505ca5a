(* Per-latency-band exemplar reservoir.

   A streaming sketch cannot know which requests will end up at p99, so
   exemplars are kept per log2 latency band (same banding as
   Histogram.bucket_of) and the band -> quantile mapping happens at read
   time: the aggregator asks for the band containing its merged
   quantile estimate and exports that band's exemplar. Each band keeps
   the single "best" request under a total order (latency descending,
   then trace id, machine, journal offset, timestamp ascending), so
   keep-the-winner is idempotent, commutative and associative and the
   merged reservoir is canonical for any merge order.

   The record path writes into preallocated mutable slots — no
   allocation in steady state (the machine name stored is the caller's
   existing string). *)

let n_bands = Histogram.n_buckets
let band_of = Histogram.bucket_of

type slot = {
  mutable occupied : bool;
  mutable latency : int;
  mutable trace_id : int;
  mutable machine : string;
  mutable offset : int; (* journal byte offset of the frame holding the
                           request-end event; -1 when not recording *)
  mutable ts : int; (* virtual timestamp of the request end *)
}

type t = { slots : slot array }

type item = {
  i_latency : int;
  i_trace_id : int;
  i_machine : string;
  i_offset : int;
  i_ts : int;
}

let create () =
  {
    slots =
      Array.init n_bands (fun _ ->
          {
            occupied = false;
            latency = 0;
            trace_id = 0;
            machine = "";
            offset = -1;
            ts = 0;
          });
  }

(* Does the challenger beat the occupant? Total order => deterministic,
   merge-order-invariant winners. *)
let beats ~latency ~trace_id ~machine ~offset ~ts (s : slot) =
  latency > s.latency
  || (latency = s.latency
      && (trace_id < s.trace_id
         || (trace_id = s.trace_id
             && (machine < s.machine
                || (machine = s.machine
                   && (offset < s.offset
                      || (offset = s.offset && ts < s.ts)))))))

let record t ~latency ~trace_id ~machine ~offset ~ts =
  let s = t.slots.(band_of latency) in
  if (not s.occupied) || beats ~latency ~trace_id ~machine ~offset ~ts s then begin
    s.occupied <- true;
    s.latency <- latency;
    s.trace_id <- trace_id;
    s.machine <- machine;
    s.offset <- offset;
    s.ts <- ts
  end

let merge ~into src =
  if into == src then invalid_arg "Exemplar.merge: cannot merge into itself";
  for b = 0 to n_bands - 1 do
    let s = src.slots.(b) in
    if s.occupied then
      record into ~latency:s.latency ~trace_id:s.trace_id ~machine:s.machine
        ~offset:s.offset ~ts:s.ts
  done

let item_of (s : slot) =
  {
    i_latency = s.latency;
    i_trace_id = s.trace_id;
    i_machine = s.machine;
    i_offset = s.offset;
    i_ts = s.ts;
  }

let best t ~band =
  if band < 0 || band >= n_bands then None
  else
    let s = t.slots.(band) in
    if s.occupied then Some (item_of s) else None

(* The exemplar for a latency value: the one in [value]'s own band, or,
   if that band is empty (the merged quantile estimate may round into a
   band no concrete request hit), the nearest occupied band below, then
   above. *)
let for_value t value =
  let b0 = band_of value in
  let rec down b = if b < 0 then None else best t ~band:b |> function
    | Some _ as r -> r
    | None -> down (b - 1)
  in
  match down b0 with
  | Some _ as r -> r
  | None ->
      let rec up b =
        if b >= n_bands then None
        else best t ~band:b |> function Some _ as r -> r | None -> up (b + 1)
      in
      up (b0 + 1)
