(* Registers are stored as plain (untagged-immediate) ints: every managed
   bit sits below bit 24 and CR3 holds pfn lsl 12, so 63 bits are plenty.
   The int64 bit constants stay in the API for x86 fidelity; converting at
   the boundary keeps [set_bit]/[test] allocation-free, which the EMC gate
   relies on for its WP-grant toggle on every round trip. *)
type t = {
  mutable cr0 : int;
  mutable cr3 : int;
  mutable cr4 : int;
  mutable gen : int;
      (* bumped on every CR0/CR4 mutation; backs Cpu's cached access ctx.
         CR3 is not part of that ctx (a CR3 load flushes the TLB, which
         invalidates Cpu's translation memo on its own), so [set_root]
         leaves it alone and a context switch rebuilds nothing. *)
}

let create () = { cr0 = 0; cr3 = 0; cr4 = 0; gen = 0 }

let cr0_wp = Int64.shift_left 1L 16

let cr4_smep = Int64.shift_left 1L 20
let cr4_smap = Int64.shift_left 1L 21
let cr4_pks = Int64.shift_left 1L 24
let cr4_cet = Int64.shift_left 1L 23

let test v bit = v land Int64.to_int bit <> 0

let wp t = test t.cr0 cr0_wp
let smep t = test t.cr4 cr4_smep
let smap t = test t.cr4 cr4_smap
let pks t = test t.cr4 cr4_pks
let cet t = test t.cr4 cr4_cet

let gen t = t.gen

let set_root t pfn = t.cr3 <- pfn lsl 12

let root_pfn t = t.cr3 lsr 12

let set_bit t ~reg bit v =
  let b = Int64.to_int bit in
  (match reg with
  | `Cr0 -> t.cr0 <- (if v then t.cr0 lor b else t.cr0 land lnot b)
  | `Cr4 -> t.cr4 <- (if v then t.cr4 lor b else t.cr4 land lnot b));
  t.gen <- t.gen + 1
