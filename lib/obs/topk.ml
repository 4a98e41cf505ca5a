(* Space-saving heavy-hitter summary (Metwally et al.) with a mergeable,
   order-invariant sealed form.

   The live structure keeps at most [capacity] keyed counters. A hit
   increments in place (allocation-free: Hashtbl.find with the
   preallocated Not_found, mutable entry fields). A miss with the table
   full evicts the minimum-count entry (smallest key on ties, so eviction
   is deterministic) and inherits its count as the new entry's possible
   overcount [err]. Classic guarantees hold: for a tracked key,
   true count is within [count - err, count], and any untracked key's
   true count is at most [floor t] (the minimum tracked count once
   full).

   Sealing produces a summary whose entries carry (count, err, fl_in)
   where [fl_in] is the floor of the summary the key appeared in, plus a
   scalar [floor_total]. Merging summaries is a key-wise sum of all
   three fields plus the floors — pure pointwise addition over a sorted
   key union, hence exactly associative and commutative, and the merged
   summary depends only on the multiset of sealed inputs. For a
   merged entry, true count lies within
   [count - err, count + (floor_total - fl_in)]: the slack term bounds
   the occurrences a key may have had in summaries that did not track
   it. *)

type entry = { key : string; mutable count : int; mutable err : int }

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable size : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Topk.create: capacity must be >= 1";
  { capacity; tbl = Hashtbl.create (2 * capacity); size = 0 }

let capacity t = t.capacity
let size t = t.size

let floor t =
  if t.size < t.capacity then 0
  else
    Hashtbl.fold (fun _ e acc -> min acc e.count) t.tbl max_int

(* The eviction victim: minimum count, smallest key on ties. *)
let victim t =
  Hashtbl.fold
    (fun _ e acc ->
      match acc with
      | None -> Some e
      | Some b ->
          if e.count < b.count || (e.count = b.count && e.key < b.key) then
            Some e
          else acc)
    t.tbl None

let observe t ~key ~weight =
  if weight < 0 then invalid_arg "Topk.observe: negative weight";
  match Hashtbl.find t.tbl key with
  | e -> e.count <- e.count + weight
  | exception Not_found ->
      if t.size < t.capacity then begin
        Hashtbl.replace t.tbl key { key; count = weight; err = 0 };
        t.size <- t.size + 1
      end
      else begin
        match victim t with
        | None -> assert false
        | Some v ->
            Hashtbl.remove t.tbl v.key;
            Hashtbl.replace t.tbl key
              { key; count = v.count + weight; err = v.count }
      end

let count t ~key =
  match Hashtbl.find_opt t.tbl key with Some e -> e.count | None -> 0

(* {2 Sealed, mergeable summaries} *)

type sentry = {
  skey : string;
  scount : int; (* recorded count (possible overcount included) *)
  serr : int; (* upper bound on the overcount part of [scount] *)
  fl_in : int; (* sum of floors of summaries that tracked this key *)
}

type summary = {
  floor_total : int; (* sum of floors of every summary merged in *)
  entries : sentry list; (* ascending by key *)
}

let empty_summary = { floor_total = 0; entries = [] }

let seal t =
  let fl = if t.size < t.capacity then 0 else floor t in
  let es = Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [] in
  let es = List.sort (fun a b -> compare a.key b.key) es in
  {
    floor_total = fl;
    entries =
      List.map
        (fun e -> { skey = e.key; scount = e.count; serr = e.err; fl_in = fl })
        es;
  }

let merge_summaries a b =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
        let c = compare x.skey y.skey in
        if c < 0 then go xs' ys (x :: acc)
        else if c > 0 then go xs ys' (y :: acc)
        else
          go xs' ys'
            ({
               skey = x.skey;
               scount = x.scount + y.scount;
               serr = x.serr + y.serr;
               fl_in = x.fl_in + y.fl_in;
             }
            :: acc)
  in
  {
    floor_total = a.floor_total + b.floor_total;
    entries = go a.entries b.entries [];
  }

type ranked = {
  rkey : string;
  rcount : int;
  lower : int; (* guaranteed minimum true count *)
  upper : int; (* guaranteed maximum true count *)
}

let ranked s e =
  {
    rkey = e.skey;
    rcount = e.scount;
    lower = e.scount - e.serr;
    upper = e.scount + (s.floor_total - e.fl_in);
  }

(* Top-n by recorded count, descending; ties broken by key ascending so
   the ranking is deterministic. Truncation happens only here, at read
   time — the summary itself keeps every key any input tracked. *)
let top ?n s =
  let all =
    List.sort
      (fun a b ->
        if a.scount <> b.scount then compare b.scount a.scount
        else compare a.skey b.skey)
      s.entries
  in
  let all = List.map (ranked s) all in
  match n with
  | None -> all
  | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: xs -> x :: take (k - 1) xs
      in
      take (max 0 n) all

let floor_total s = s.floor_total
let n_keys s = List.length s.entries
