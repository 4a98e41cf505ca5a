type prot = { read : bool; write : bool; exec : bool }

let prot_rw = { read = true; write = true; exec = false }
let prot_r = { read = true; write = false; exec = false }

type kind = Anon | Stack | File of string | Confined | Common

type region = { start : int; len : int; prot : prot; kind : kind }

let region_end r = r.start + r.len

(* The first [n] slots of [regions] hold the set, sorted by start and
   non-overlapping; the rest hold [vacant]. Every operation is a binary
   search plus, for [add] and [remove], one shift: none builds anything
   once the array has grown to the set's peak size. *)
type t = { mutable regions : region array; mutable n : int }

let vacant = { start = 0; len = 0; prot = prot_r; kind = Anon }

let create () = { regions = [||]; n = 0 }
let copy t = { regions = Array.copy t.regions; n = t.n }

let page_aligned v = v land (Hw.Phys_mem.page_size - 1) = 0

(* Index of the first region in [lo, hi) starting above [addr] ([hi]
   when none). The searches here are toplevel over ints, so a lookup
   builds no closure. *)
let rec upper_in regions addr lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if regions.(mid).start > addr then upper_in regions addr lo mid
    else upper_in regions addr (mid + 1) hi

let upper t addr = upper_in t.regions addr 0 t.n

let add t r =
  if r.len <= 0 then Error "empty region"
  else if not (page_aligned r.start && page_aligned r.len) then Error "unaligned region"
  else begin
    (* Only the neighbours of the insertion point can overlap. *)
    let i = upper t r.start in
    if (i > 0 && region_end t.regions.(i - 1) > r.start)
       || (i < t.n && t.regions.(i).start < region_end r)
    then Error "overlapping region"
    else begin
      if t.n = Array.length t.regions then begin
        let grown = Array.make (max 4 (2 * t.n)) vacant in
        Array.blit t.regions 0 grown 0 t.n;
        t.regions <- grown
      end;
      Array.blit t.regions i t.regions (i + 1) (t.n - i);
      t.regions.(i) <- r;
      t.n <- t.n + 1;
      Ok ()
    end
  end

let remove t ~start =
  let i = upper t start - 1 in
  if i >= 0 && t.regions.(i).start = start then begin
    Array.blit t.regions (i + 1) t.regions i (t.n - i - 1);
    t.n <- t.n - 1;
    t.regions.(t.n) <- vacant
  end

let find_exn t addr =
  let i = upper t addr - 1 in
  if i >= 0 && addr < region_end t.regions.(i) then t.regions.(i) else raise Not_found

let find t addr = match find_exn t addr with r -> Some r | exception Not_found -> None

(* After each call the walk resumes at the first region starting above the
   one just visited, so [f] may remove regions (the one it was handed
   included) without making the walk skip or repeat one. *)
let rec iter_from f t i =
  if i < t.n then begin
    let r = t.regions.(i) in
    f r;
    iter_from f t (upper t r.start)
  end

let iter f t = iter_from f t 0

let count t = t.n

let total_bytes t kind =
  let acc = ref 0 in
  for i = 0 to t.n - 1 do
    let r = t.regions.(i) in
    if r.kind = kind then acc := !acc + r.len
  done;
  !acc

(* The candidate starts, in order, are the hint and then the end of every
   region ending above it. Regions before [i] end at or below the
   candidate [c], so only region [i] can overlap [c, c + len); when it
   does, the next candidate is its end. *)
let rec gap_from t ~len ~limit c i =
  if c + len > limit then -1
  else if i >= t.n || t.regions.(i).start >= c + len then c
  else gap_from t ~len ~limit (region_end t.regions.(i)) (i + 1)

let find_gap t ~hint ~len ~limit =
  let hint = Layout.page_align_up hint in
  (* The first region ending above [hint]: the one holding it, if any,
     else the first one starting above it. *)
  let i = upper t hint in
  let i = if i > 0 && region_end t.regions.(i - 1) > hint then i - 1 else i in
  gap_from t ~len:(Layout.page_align_up len) ~limit hint i
