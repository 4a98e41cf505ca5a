(* TME-MK engine model: per-frame key tags, one active tenant key. *)

(* Key tags live in a Frame_table directory; a run of frames no one tagged
   shares the all-zero empty leaf. *)
let empty = Frame_table.empty_leaf 0

type t = {
  frames : int;
  mutable tags : int array array;
  mutable active : int;
  mutable keyed_fills : int;
  mutable faults : int;
}

type decision = Plain | Keyed | Wrong_key of int * int | Inactive_key of int * int

let create ~frames =
  if frames <= 0 then invalid_arg "Tme.create: frames must be positive";
  { frames; tags = Frame_table.empty_dir; active = 0; keyed_fills = 0;
    faults = 0 }

let tag_of t ~pfn =
  Array.unsafe_get (Frame_table.leaf t.tags ~empty pfn) (Frame_table.leaf_index pfn)

let store t pfn keyid =
  let leaf = Frame_table.leaf t.tags ~empty pfn in
  if leaf != empty then Array.unsafe_set leaf (Frame_table.leaf_index pfn) keyid
  else begin
    let dir = Frame_table.set t.tags ~frames:t.frames ~empty pfn keyid in
    if dir != t.tags then t.tags <- dir
  end

let tag t ~pfn keyid =
  if keyid < 0 || keyid >= 1 lsl Pte.keyid_bits then
    invalid_arg "Tme.tag: keyid out of range";
  if not (Frame_table.in_range ~frames:t.frames pfn) then
    invalid_arg "Tme.tag: pfn out of range";
  store t pfn keyid

let untag t ~pfn = if Frame_table.in_range ~frames:t.frames pfn then store t pfn 0

let set_active t keyid =
  if keyid < 0 || keyid >= 1 lsl Pte.keyid_bits then
    invalid_arg "Tme.set_active: keyid out of range";
  t.active <- keyid

let active t = t.active

(* The fill-time key check. A mapping whose PTE keyid disagrees with the
   frame's tag decrypts with the wrong key — modelled as an integrity fault
   rather than silent ciphertext. A correctly-tagged tenant frame still
   requires that tenant's key to be the active context. *)
let check t ~pfn ~pte_keyid =
  let tag = tag_of t ~pfn in
  if pte_keyid <> tag then begin
    t.faults <- t.faults + 1;
    Wrong_key (pte_keyid, tag)
  end
  else if tag = 0 then Plain
  else if t.active <> tag then begin
    t.faults <- t.faults + 1;
    Inactive_key (tag, t.active)
  end
  else begin
    t.keyed_fills <- t.keyed_fills + 1;
    Keyed
  end

let keyed_fills t = t.keyed_fills
let faults t = t.faults
