type sink = Trace.kind -> ts:int -> arg:int -> unit

type t = {
  (* Built-in per-kind tallies, indexed by [Trace.index]: every emission
     bumps them, so counting costs no sink call ({!Counter} is a view). *)
  counts : int array;
  arg_sums : int array;
  (* Per-kind routing: the sinks subscribed to each kind, in attach order. *)
  routes : sink array array;
  mutable audit : Audit.t option;
  mutable finalizers : (now:int -> unit) list;
  mutable finalized : bool;
}

let create () =
  {
    counts = Array.make Trace.n_kinds 0;
    arg_sums = Array.make Trace.n_kinds 0;
    routes = Array.make Trace.n_kinds [||];
    audit = None;
    finalizers = [];
    finalized = false;
  }

let attach ?(kinds = Trace.all) t sink =
  let subscribed = Array.make Trace.n_kinds false in
  List.iter
    (fun k ->
      let i = Trace.index k in
      if not subscribed.(i) then begin
        subscribed.(i) <- true;
        t.routes.(i) <- Array.append t.routes.(i) [| sink |]
      end)
    kinds

let emit t kind ~ts ~arg =
  let i = Trace.index kind in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
  Array.unsafe_set t.arg_sums i (Array.unsafe_get t.arg_sums i + arg);
  let sinks = Array.unsafe_get t.routes i in
  for j = 0 to Array.length sinks - 1 do
    (Array.unsafe_get sinks j) kind ~ts ~arg
  done

let count t kind = t.counts.(Trace.index kind)
let arg_sum t kind = t.arg_sums.(Trace.index kind)

(* Audit hook: the structured side channel for decisions whose detail does
   not fit the int-arg bus. The detail thunk only runs when a log is
   attached, so instrumented paths stay allocation-free otherwise. *)

let set_audit t audit = t.audit <- audit
let audit t = t.audit

let audit_event t ~ts ~category ~verdict detail =
  match t.audit with
  | None -> ()
  | Some log -> Audit.append log ~ts ~category ~verdict ~detail:(detail ())

(* Finalizers: flush/close hooks for sinks with buffered or open state
   (attribution contexts, audit chains). [finalize] is idempotent so both
   the normal-exit path and an exception handler can call it. *)

let add_finalizer t f = t.finalizers <- f :: t.finalizers

let finalize t ~now =
  if not t.finalized then begin
    t.finalized <- true;
    List.iter (fun f -> f ~now) (List.rev t.finalizers);
    match t.audit with None -> () | Some log -> Audit.finalize log ~now
  end

let finalized t = t.finalized
