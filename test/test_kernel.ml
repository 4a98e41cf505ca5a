(* Tests for the deprivileged guest kernel running over the native privops
   table (direct privileged execution, Table 4 native costs). *)

let make_kernel ?(frames = 8192) ?(cma_frames = 1024) () =
  let mem = Hw.Phys_mem.create ~frames in
  let clock = Hw.Cycles.clock () in
  let cpu = Hw.Cpu.create ~id:0 ~mem ~clock ~timer_period:100_000 () in
  let td = Tdx.Td_module.create ~mem ~clock ~hw_key:(Crypto.Sha256.digest_string "k") in
  let host = Vmm.Host.create () in
  Tdx.Td_module.set_vmm td (Vmm.Host.handler host);
  let privops = Kernel.Privops.native ~cpu ~td in
  let k = Kernel.boot ~mem ~cpu ~td ~privops ~reserved_frames:64 ~cma_frames in
  (k, cpu, host)

let enter_task k task =
  k.Kernel.privops.Kernel.Privops.write_cr3 ~root_pfn:task.Kernel.Task.root_pfn

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)
(* ------------------------------------------------------------------ *)

let test_alloc_basic () =
  let a = Kernel.Alloc.create ~first_pfn:100 ~frames:10 in
  Alcotest.(check int) "available" 10 (Kernel.Alloc.available a);
  let p1 = Option.get (Kernel.Alloc.alloc a) in
  let p2 = Option.get (Kernel.Alloc.alloc a) in
  Alcotest.(check bool) "distinct" true (p1 <> p2);
  Alcotest.(check bool) "in range" true (p1 >= 100 && p1 < 110);
  Kernel.Alloc.free a p1;
  Alcotest.(check int) "used" 1 (Kernel.Alloc.used a);
  Alcotest.check_raises "double free" (Invalid_argument "Alloc.free: double free") (fun () ->
      Kernel.Alloc.free a p1);
  Alcotest.check_raises "foreign pfn" (Invalid_argument "Alloc: pfn outside this allocator")
    (fun () -> Kernel.Alloc.free a 50)

let test_alloc_exhaustion () =
  let a = Kernel.Alloc.create ~first_pfn:0 ~frames:3 in
  ignore (Kernel.Alloc.alloc a);
  ignore (Kernel.Alloc.alloc a);
  ignore (Kernel.Alloc.alloc a);
  Alcotest.(check (option int)) "exhausted" None (Kernel.Alloc.alloc a)

let test_alloc_contig () =
  let a = Kernel.Alloc.create ~first_pfn:10 ~frames:16 in
  (* Fragment: take pfn 10, leaving 11.. free. *)
  let first = Option.get (Kernel.Alloc.alloc a) in
  Alcotest.(check int) "first" 10 first;
  (match Kernel.Alloc.alloc_contig a 8 with
  | Some base ->
      Alcotest.(check int) "contiguous after fragment" 11 base;
      for pfn = base to base + 7 do
        Alcotest.(check bool) "marked used" true (Kernel.Alloc.is_allocated a pfn)
      done
  | None -> Alcotest.fail "contig alloc failed");
  Alcotest.(check (option int)) "too big" None (Kernel.Alloc.alloc_contig a 8)

let prop_alloc_unique =
  QCheck.Test.make ~name:"alloc returns unique pfns" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let a = Kernel.Alloc.create ~first_pfn:0 ~frames:256 in
      let got = List.init n (fun _ -> Kernel.Alloc.alloc a) in
      let pfns = List.filter_map Fun.id got in
      List.length pfns = n
      && List.length (List.sort_uniq compare pfns) = n)

(* ------------------------------------------------------------------ *)
(* Vma                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vma_add_find () =
  let r1 = { Kernel.Vma.start = 0x1000; len = 0x3000; prot = Kernel.Vma.prot_rw; kind = Kernel.Vma.Anon } in
  let r2 = { Kernel.Vma.start = 0x10000; len = 0x1000; prot = Kernel.Vma.prot_r; kind = Kernel.Vma.Common } in
  let t = Kernel.Vma.create () in
  Result.get_ok (Kernel.Vma.add t r1);
  Result.get_ok (Kernel.Vma.add t r2);
  (match Kernel.Vma.find t 0x2fff with
  | Some r -> Alcotest.(check int) "found r1" 0x1000 r.Kernel.Vma.start
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "gap not found" true (Kernel.Vma.find t 0x5000 = None);
  Alcotest.(check int) "common bytes" 0x1000 (Kernel.Vma.total_bytes t Kernel.Vma.Common)

let test_vma_rejects () =
  let r1 = { Kernel.Vma.start = 0x1000; len = 0x2000; prot = Kernel.Vma.prot_rw; kind = Kernel.Vma.Anon } in
  let t = Kernel.Vma.create () in
  Result.get_ok (Kernel.Vma.add t r1);
  (match Kernel.Vma.add t { r1 with Kernel.Vma.start = 0x2000 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlap accepted");
  (match Kernel.Vma.add t { r1 with Kernel.Vma.start = 0x8001 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unaligned accepted");
  (match Kernel.Vma.add t { r1 with Kernel.Vma.start = 0x8000; len = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted");
  Alcotest.(check int) "refusals leave the set as it was" 1 (Kernel.Vma.count t)

let test_vma_find_gap () =
  let t = Kernel.Vma.create () in
  let add r = Result.get_ok (Kernel.Vma.add t r) in
  add { Kernel.Vma.start = 0x10000; len = 0x2000; prot = Kernel.Vma.prot_rw; kind = Kernel.Vma.Anon };
  add { Kernel.Vma.start = 0x14000; len = 0x1000; prot = Kernel.Vma.prot_rw; kind = Kernel.Vma.Anon };
  (* A 2-page gap exists at 0x12000. *)
  Alcotest.(check int) "fits in hole" 0x12000
    (Kernel.Vma.find_gap t ~hint:0x10000 ~len:0x2000 ~limit:0x100000);
  (* Requests larger than the hole go after the last region. *)
  Alcotest.(check int) "after last" 0x15000
    (Kernel.Vma.find_gap t ~hint:0x10000 ~len:0x3000 ~limit:0x100000);
  Alcotest.(check int) "limit respected" (-1)
    (Kernel.Vma.find_gap t ~hint:0x10000 ~len:0x3000 ~limit:0x16000)

(* The list-based set [Vma.t] replaced, kept as the model its
   replacement must match call for call. *)
module Vma_model = struct
  open Kernel.Vma

  let add t r =
    if r.len <= 0 then Error "empty region"
    else if r.start land 0xfff <> 0 || r.len land 0xfff <> 0 then Error "unaligned region"
    else if List.exists (fun o -> r.start < region_end o && o.start < region_end r) t then
      Error "overlapping region"
    else Ok (List.sort (fun a b -> compare a.start b.start) (r :: t))

  let remove t ~start = List.filter (fun r -> r.start <> start) t
  let find t addr = List.find_opt (fun r -> addr >= r.start && addr < region_end r) t

  let find_gap t ~hint ~len ~limit =
    let hint = Kernel.Layout.page_align_up hint in
    let len = Kernel.Layout.page_align_up len in
    let candidates =
      hint :: List.filter_map (fun r -> if region_end r >= hint then Some (region_end r) else None) t
    in
    let fits start =
      start + len <= limit
      && not (List.exists (fun r -> start < region_end r && r.start < start + len) t)
    in
    match List.find_opt fits (List.sort compare candidates) with Some s -> s | None -> -1
end

type vma_op =
  | Add of int * int
  | Remove of int
  | Find of int
  | Gap of int * int * int

(* Over 40 pages, so adds collide often. Most bounds are page multiples;
   some are off by one byte, empty or negative, and gap limits land on
   exact page boundaries, where a gap fits with nothing to spare. *)
let vma_op_gen =
  let open QCheck.Gen in
  let page = map (fun p -> p * 4096) (int_range 0 40) in
  let bound =
    frequency
      [ (8, page); (1, map (fun p -> p + 1) page); (1, return 0); (1, int_range (-8192) 8192) ]
  in
  frequency
    [
      (4, map2 (fun s l -> Add (s, l)) bound bound);
      (2, map (fun s -> Remove s) bound);
      (2, map (fun a -> Find a) (oneof [ page; map (fun p -> p - 1) page; int_range 0 (41 * 4096) ]));
      (3, map3 (fun h l lim -> Gap (h, l, lim)) bound bound (map (fun p -> p * 4096) (int_range 0 44)));
    ]

let pp_vma_op = function
  | Add (s, l) -> Printf.sprintf "add 0x%x+0x%x" s l
  | Remove s -> Printf.sprintf "remove 0x%x" s
  | Find a -> Printf.sprintf "find 0x%x" a
  | Gap (h, l, lim) -> Printf.sprintf "gap hint=0x%x len=0x%x limit=0x%x" h l lim

let prop_vma_model =
  QCheck.Test.make ~name:"vma matches the sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_vma_op ops))
       QCheck.Gen.(list_size (int_range 1 60) vma_op_gen))
    (fun ops ->
      let t = Kernel.Vma.create () in
      let kinds = [| Kernel.Vma.Anon; Kernel.Vma.Common; Kernel.Vma.Confined |] in
      let regions () =
        let acc = ref [] in
        Kernel.Vma.iter (fun r -> acc := r :: !acc) t;
        List.rev !acc
      in
      let step model op =
        let same_find a = Kernel.Vma.find t a = Vma_model.find model a in
        let model, ok =
          match op with
          | Add (start, len) ->
              let r =
                { Kernel.Vma.start; len; prot = Kernel.Vma.prot_rw;
                  kind = kinds.(abs (start / 4096) mod 3) }
              in
              (match (Vma_model.add model r, Kernel.Vma.add t r) with
              | Ok model', Ok () -> (model', true)
              | Error e, Error e' -> (model, e = e')
              | _ -> (model, false))
          | Remove start ->
              Kernel.Vma.remove t ~start;
              (Vma_model.remove model ~start, true)
          | Find a ->
              (model, same_find a && (match Kernel.Vma.find_exn t a with
                                       | r -> Some r = Vma_model.find model a
                                       | exception Not_found -> Vma_model.find model a = None))
          | Gap (hint, len, limit) ->
              ( model,
                Kernel.Vma.find_gap t ~hint ~len ~limit
                = Vma_model.find_gap model ~hint ~len ~limit )
        in
        let bytes k =
          List.fold_left (fun acc r -> if r.Kernel.Vma.kind = k then acc + r.Kernel.Vma.len else acc) 0 model
        in
        ( model,
          ok
          && regions () = model
          && Kernel.Vma.count t = List.length model
          && Array.for_all (fun k -> Kernel.Vma.total_bytes t k = bytes k) kinds )
      in
      let rec go model = function
        | [] -> true
        | op :: rest ->
            let model, ok = step model op in
            ok && go model rest
      in
      go [] ops)

(* A fork copies the VMAs: a mapping the parent makes afterwards is not the
   child's. *)
let test_vma_fork_isolated () =
  let k, _, _ = make_kernel () in
  let parent = Kernel.create_task k ~name:"parent" ~kind:Kernel.Task.Normal in
  ignore (Kernel.mmap k parent ~len:0x2000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon);
  let child = Kernel.fork_process k parent ~name:"child" in
  let later = Kernel.mmap k parent ~len:0x1000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  Alcotest.(check int) "child keeps one region" 1 (Kernel.Vma.count child.Kernel.Task.vmas);
  Alcotest.(check bool) "parent's new region not in the child" true
    (Kernel.Vma.find child.Kernel.Task.vmas later = None);
  match Kernel.handle_page_fault k child ~addr:later ~kind:Hw.Fault.Write with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "child faulted in the parent's later mapping"

(* [Sim.Machine]'s fork loop: the munmaps remove regions from the very set
   [Vma.iter] walks, and every region's frames must still come back. *)
let test_vma_iter_while_unmapping () =
  let k, _, _ = make_kernel () in
  let parent = Kernel.create_task k ~name:"parent" ~kind:Kernel.Task.Normal in
  for _ = 1 to 5 do
    let addr = Kernel.mmap k parent ~len:0x2000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
    Result.get_ok (Kernel.populate k parent ~start:addr ~len:0x2000)
  done;
  let child = Kernel.fork_process k parent ~name:"child" in
  let child_pfns = ref [] in
  Kernel.Vma.iter
    (fun r ->
      for i = 0 to (r.Kernel.Vma.len / 4096) - 1 do
        child_pfns :=
          Option.get (Kernel.resolve_pfn k child ~addr:(r.Kernel.Vma.start + (i * 4096)))
          :: !child_pfns
      done)
    child.Kernel.Task.vmas;
  Alcotest.(check int) "ten copied pages" 10 (List.length !child_pfns);
  Kernel.exit_task k child ~code:0;
  let visited = ref 0 in
  Kernel.Vma.iter
    (fun r ->
      incr visited;
      Result.get_ok (Kernel.munmap k child ~addr:r.Kernel.Vma.start))
    child.Kernel.Task.vmas;
  Alcotest.(check int) "every region visited once" 5 !visited;
  Alcotest.(check int) "no region left" 0 (Kernel.Vma.count child.Kernel.Task.vmas);
  List.iter
    (fun pfn ->
      Alcotest.(check bool) "child frame freed" false
        (Kernel.Alloc.is_allocated k.Kernel.frame_alloc pfn))
    !child_pfns;
  Alcotest.(check int) "parent untouched" 5 (Kernel.Vma.count parent.Kernel.Task.vmas)

(* A thread shares the page tables and the VMA set: a mapping either side
   makes is the other's, so the two never take the same gap, and a
   thread's munmap removes the region for both. *)
let test_vma_clone_shares () =
  let k, _, _ = make_kernel () in
  let parent = Kernel.create_task k ~name:"parent" ~kind:Kernel.Task.Normal in
  let mmap task = Kernel.mmap k task ~len:0x1000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  let first = mmap parent in
  let thread = Kernel.clone_thread k parent ~name:"thread" in
  let by_parent = mmap parent in
  let by_thread = mmap thread in
  Alcotest.(check bool) "different addresses" true (by_parent <> by_thread);
  List.iter
    (fun (who, task) ->
      List.iter
        (fun addr ->
          Alcotest.(check bool)
            (Printf.sprintf "%s sees 0x%x" who addr)
            true
            (Kernel.Vma.find task.Kernel.Task.vmas addr <> None))
        [ first; by_parent; by_thread ];
      Alcotest.(check int) (who ^ ": three regions") 3 (Kernel.Vma.count task.Kernel.Task.vmas))
    [ ("parent", parent); ("thread", thread) ];
  Result.get_ok (Kernel.munmap k thread ~addr:first);
  Alcotest.(check bool) "thread's munmap removes the parent's region" true
    (Kernel.Vma.find parent.Kernel.Task.vmas first = None);
  Alcotest.(check bool) "parent's munmap of it now fails" true
    (Result.is_error (Kernel.munmap k parent ~addr:first))

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)
(* ------------------------------------------------------------------ *)

let test_boot_state () =
  let k, cpu, _ = make_kernel () in
  Alcotest.(check bool) "smep on" true (Hw.Cr.smep cpu.Hw.Cpu.cr);
  Alcotest.(check bool) "smap on" true (Hw.Cr.smap cpu.Hw.Cpu.cr);
  Alcotest.(check bool) "wp on" true (Hw.Cr.wp cpu.Hw.Cpu.cr);
  Alcotest.(check int) "cr3 = kernel root" k.Kernel.kernel_root (Hw.Cr.root_pfn cpu.Hw.Cpu.cr)

let test_direct_map_on_demand () =
  let k, cpu, _ = make_kernel () in
  let pfn = Option.get (Kernel.Alloc.alloc k.Kernel.frame_alloc) in
  Kernel.ensure_direct_map k ~pfn;
  (* The kernel can now reach the frame through the direct map. *)
  let va = Kernel.Layout.direct_map (Hw.Phys_mem.addr_of_pfn pfn) in
  Hw.Cpu.write_u64 cpu va 99L;
  Alcotest.(check int64) "direct map works" 99L (Hw.Cpu.read_u64 cpu va);
  (* Idempotent. *)
  Kernel.ensure_direct_map k ~pfn

(* ------------------------------------------------------------------ *)
(* Tasks, paging                                                       *)
(* ------------------------------------------------------------------ *)

let test_task_paging () =
  let k, cpu, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"prog" ~kind:Kernel.Task.Normal in
  enter_task k task;
  let addr = Kernel.mmap k task ~len:0x4000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  (* Demand paging: nothing mapped yet. *)
  Alcotest.(check (option int)) "unmapped before fault" None (Kernel.resolve_pfn k task ~addr);
  let pf0 = k.Kernel.stats.Kernel.page_faults in
  (match Kernel.handle_page_fault k task ~addr ~kind:Hw.Fault.Write with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "fault counted" (pf0 + 1) k.Kernel.stats.Kernel.page_faults;
  Alcotest.(check bool) "mapped after fault" true (Kernel.resolve_pfn k task ~addr <> None);
  (* The user page is reachable from user mode. *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_u64 cpu addr 1234L;
  Alcotest.(check int64) "user rw" 1234L (Hw.Cpu.read_u64 cpu addr);
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor

let test_fault_outside_vma_segfaults () =
  let k, _, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"bad" ~kind:Kernel.Task.Normal in
  (match Kernel.handle_page_fault k task ~addr:0x7000_0000 ~kind:Hw.Fault.Read with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fault outside vma succeeded");
  Alcotest.(check int) "segfault counted" 1 k.Kernel.stats.Kernel.segfaults;
  (* Write fault on a read-only region also segfaults. *)
  let addr = Kernel.mmap k task ~len:0x1000 ~prot:Kernel.Vma.prot_r ~kind:Kernel.Vma.Anon in
  match Kernel.handle_page_fault k task ~addr ~kind:Hw.Fault.Write with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "write fault on ro region succeeded"

let test_populate_pins () =
  let k, _, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"sb" ~kind:(Kernel.Task.Sandboxed 1) in
  let len = 16 * 4096 in
  let addr = Kernel.mmap k task ~len ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Confined in
  let used0 = Kernel.Alloc.used k.Kernel.cma in
  (match Kernel.populate k task ~start:addr ~len with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "confined frames from CMA" (used0 + 16) (Kernel.Alloc.used k.Kernel.cma);
  for i = 0 to 15 do
    Alcotest.(check bool) "page present" true
      (Kernel.resolve_pfn k task ~addr:(addr + (i * 4096)) <> None)
  done

let test_clone_shares_fork_copies () =
  let k, cpu, _ = make_kernel () in
  let parent = Kernel.create_task k ~name:"parent" ~kind:Kernel.Task.Normal in
  enter_task k parent;
  let addr = Kernel.mmap k parent ~len:0x2000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  ignore (Kernel.handle_page_fault k parent ~addr ~kind:Hw.Fault.Write);
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_u64 cpu addr 0xAAL;
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  (* Clone: same address space. *)
  let thread = Kernel.clone_thread k parent ~name:"thread" in
  Alcotest.(check int) "same root" parent.Kernel.Task.root_pfn thread.Kernel.Task.root_pfn;
  (* Fork: different root, same content. *)
  let child = Kernel.fork_process k parent ~name:"child" in
  Alcotest.(check bool) "different root" true
    (child.Kernel.Task.root_pfn <> parent.Kernel.Task.root_pfn);
  let parent_pfn = Option.get (Kernel.resolve_pfn k parent ~addr) in
  let child_pfn = Option.get (Kernel.resolve_pfn k child ~addr) in
  Alcotest.(check bool) "copied frame" true (parent_pfn <> child_pfn);
  Alcotest.(check int64) "copied content" 0xAAL
    (Hw.Phys_mem.read_raw_u64 k.Kernel.mem (Hw.Phys_mem.addr_of_pfn child_pfn));
  (* Writes diverge after fork. *)
  enter_task k child;
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_u64 cpu addr 0xBBL;
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  Alcotest.(check int64) "parent unchanged" 0xAAL
    (Hw.Phys_mem.read_raw_u64 k.Kernel.mem (Hw.Phys_mem.addr_of_pfn parent_pfn))

let test_munmap_frees () =
  let k, _, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"m" ~kind:Kernel.Task.Normal in
  let addr = Kernel.mmap k task ~len:0x3000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  (match Kernel.populate k task ~start:addr ~len:0x3000 with Ok () -> () | Error e -> Alcotest.fail e);
  let used = Kernel.Alloc.used k.Kernel.frame_alloc in
  (match Kernel.munmap k task ~addr with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "frames freed" (used - 3) (Kernel.Alloc.used k.Kernel.frame_alloc);
  Alcotest.(check (option int)) "unmapped" None (Kernel.resolve_pfn k task ~addr);
  match Kernel.munmap k task ~addr with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double munmap succeeded"

(* ------------------------------------------------------------------ *)
(* TLB staleness audit: every PTE downgrade route must flush           *)
(* ------------------------------------------------------------------ *)

(* The Cpu's TLB happily serves stale translations until flushed (see
   test_hw "tlb staleness semantics"). These tests pin that every privops
   route that downgrades or removes a mapping carries its own flush, so a
   user access can never slip through a revoked PTE. *)

let expect_user_fault name cpu f =
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  (match f () with
  | _ -> cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor; Alcotest.fail (name ^ ": expected a fault")
  | exception Hw.Fault.Fault _ -> cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor)

let map_user_page k cpu task =
  let addr = Kernel.mmap k task ~len:0x2000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  (match Kernel.populate k task ~start:addr ~len:0x2000 with Ok () -> () | Error e -> Alcotest.fail e);
  enter_task k task;
  (* Warm the TLB with a successful user write. *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_u8 cpu addr 1;
  Hw.Cpu.write_u8 cpu (addr + 0x1000) 1;
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  addr

let downgrade_pte k task addr =
  let pte_addr =
    Option.get (Hw.Page_table.leaf_addr k.Kernel.mem ~root_pfn:task.Kernel.Task.root_pfn addr)
  in
  let ro = Hw.Pte.set_writable (Hw.Phys_mem.read_u64 k.Kernel.mem pte_addr) false in
  (pte_addr, ro)

let test_write_pte_flushes_tlb () =
  let k, cpu, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"t" ~kind:Kernel.Task.Normal in
  let addr = map_user_page k cpu task in
  let pte_addr, ro = downgrade_pte k task addr in
  k.Kernel.privops.Kernel.Privops.write_pte ~pte_addr ro;
  (* No stale window: the very next user write must fault. *)
  expect_user_fault "write after write_pte downgrade" cpu (fun () ->
      Hw.Cpu.write_u8 cpu addr 2);
  (* Reads still fine — only the write permission was revoked. *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  ignore (Hw.Cpu.read_u8 cpu addr);
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor

let test_write_pte_batch_flushes_tlb () =
  let k, cpu, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"t" ~kind:Kernel.Task.Normal in
  let addr = map_user_page k cpu task in
  let d0 = downgrade_pte k task addr in
  let d1 = downgrade_pte k task (addr + 0x1000) in
  k.Kernel.privops.Kernel.Privops.write_pte_batch [| d0; d1 |];
  expect_user_fault "write after batch downgrade (page 0)" cpu (fun () ->
      Hw.Cpu.write_u8 cpu addr 2);
  expect_user_fault "write after batch downgrade (page 1)" cpu (fun () ->
      Hw.Cpu.write_u8 cpu (addr + 0x1000) 2)

let test_munmap_flushes_tlb () =
  let k, cpu, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"t" ~kind:Kernel.Task.Normal in
  let addr = map_user_page k cpu task in
  (match Kernel.munmap k task ~addr with Ok () -> () | Error e -> Alcotest.fail e);
  expect_user_fault "read after munmap" cpu (fun () -> Hw.Cpu.read_u8 cpu addr)

(* ------------------------------------------------------------------ *)
(* Syscalls                                                            *)
(* ------------------------------------------------------------------ *)

let with_user_buffer k task len =
  let addr = Kernel.mmap k task ~len ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  (match Kernel.populate k task ~start:addr ~len with Ok () -> () | Error e -> failwith e);
  addr

let test_syscall_file_roundtrip () =
  let k, cpu, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"io" ~kind:Kernel.Task.Normal in
  enter_task k task;
  let buf = with_user_buffer k task 4096 in
  (* Stage data in user memory, as a program would. *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Hw.Cpu.write_bytes cpu buf (Bytes.of_string "hello kernel fs");
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  let fd =
    match Kernel.syscall k task (Kernel.Syscall.Open { path = "/tmp/out" }) with
    | Kernel.Syscall.Rint fd -> fd
    | r -> Alcotest.failf "open: %a" Kernel.Syscall.pp_result r
  in
  (match Kernel.syscall k task (Kernel.Syscall.Write { fd; user_buf = buf; len = 15 }) with
  | Kernel.Syscall.Rint 15 -> ()
  | r -> Alcotest.failf "write: %a" Kernel.Syscall.pp_result r);
  (* User-destination read: POSIX shape, count back, payload in user memory. *)
  (match Kernel.syscall k task (Kernel.Syscall.Read { fd; user_buf = buf + 512; len = 64 }) with
  | Kernel.Syscall.Rint 15 -> ()
  | r -> Alcotest.failf "read: %a" Kernel.Syscall.pp_result r);
  (* Kernel-buffered read: the payload itself comes back. *)
  (match Kernel.syscall k task (Kernel.Syscall.Read { fd; user_buf = 0; len = 64 }) with
  | Kernel.Syscall.Rbytes b -> Alcotest.(check string) "read back" "hello kernel fs" (Bytes.to_string b)
  | r -> Alcotest.failf "read: %a" Kernel.Syscall.pp_result r);
  (* The user copy really landed in user memory. *)
  cpu.Hw.Cpu.mode <- Hw.Cpu.User;
  Alcotest.(check string) "copied to user" "hello"
    (Bytes.to_string (Hw.Cpu.read_bytes cpu (buf + 512) 5));
  cpu.Hw.Cpu.mode <- Hw.Cpu.Supervisor;
  (match Kernel.syscall k task (Kernel.Syscall.Close { fd }) with
  | Kernel.Syscall.Rint 0 -> ()
  | r -> Alcotest.failf "close: %a" Kernel.Syscall.pp_result r);
  match Kernel.syscall k task (Kernel.Syscall.Read { fd; user_buf = 0; len = 1 }) with
  | Kernel.Syscall.Rerr _ -> ()
  | _ -> Alcotest.fail "read after close succeeded"

let test_syscall_brk_mmap () =
  let k, _, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"mem" ~kind:Kernel.Task.Normal in
  (match Kernel.syscall k task (Kernel.Syscall.Mmap { len = 8192; prot = Kernel.Vma.prot_rw }) with
  | Kernel.Syscall.Raddr a -> Alcotest.(check bool) "user addr" true (Kernel.Layout.is_user_addr a)
  | r -> Alcotest.failf "mmap: %a" Kernel.Syscall.pp_result r);
  let brk0 = task.Kernel.Task.brk in
  match Kernel.syscall k task (Kernel.Syscall.Brk { new_brk = brk0 + 0x10000 }) with
  | Kernel.Syscall.Raddr b -> Alcotest.(check int) "brk grew" (brk0 + 0x10000) b
  | r -> Alcotest.failf "brk: %a" Kernel.Syscall.pp_result r

let test_syscall_futex () =
  let k, _, _ = make_kernel () in
  let a = Kernel.create_task k ~name:"a" ~kind:Kernel.Task.Normal in
  let b = Kernel.create_task k ~name:"b" ~kind:Kernel.Task.Normal in
  ignore b;
  ignore (Kernel.syscall k a Kernel.Syscall.Futex_wait);
  Alcotest.(check bool) "a blocked" true (a.Kernel.Task.state = Kernel.Task.Blocked);
  ignore (Kernel.syscall k b Kernel.Syscall.Futex_wake);
  Alcotest.(check bool) "a runnable" true (a.Kernel.Task.state = Kernel.Task.Runnable)

let test_syscall_counters_and_cost () =
  let k, _, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"c" ~kind:Kernel.Task.Normal in
  let t0 = Hw.Cycles.now k.Kernel.clock in
  let n0 = k.Kernel.stats.Kernel.syscalls in
  ignore (Kernel.syscall k task Kernel.Syscall.Getpid);
  Alcotest.(check int) "syscall counted" (n0 + 1) k.Kernel.stats.Kernel.syscalls;
  Alcotest.(check int) "getpid costs one round trip" Hw.Cycles.Cost.syscall_roundtrip
    (Hw.Cycles.now k.Kernel.clock - t0)

(* A warm getpid allocates nothing: the result is the task's interned
   [Rint tid] and the dispatch span is emitted inline. *)
let test_getpid_zero_alloc () =
  let k, _, _ = make_kernel () in
  let task = Kernel.create_task k ~name:"p" ~kind:Kernel.Task.Normal in
  ignore (Kernel.syscall k task Kernel.Syscall.Getpid);
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let pid = ref (-1) in
  let m0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    match Kernel.syscall k task Kernel.Syscall.Getpid with
    | Kernel.Syscall.Rint p -> pid := p
    | _ -> Alcotest.fail "getpid failed"
  done;
  let words = Gc.minor_words () -. m0 -. probe in
  Alcotest.(check (float 0.0)) "minor words over 1000 getpids" 0.0 words;
  Alcotest.(check int) "returns the tid" task.Kernel.Task.tid !pid

let test_cpuid_ve_path () =
  let k, _, host = make_kernel () in
  let task = Kernel.create_task k ~name:"v" ~kind:Kernel.Task.Normal in
  Vmm.Host.set_cpuid host ~leaf:0 0x756e6547L;
  let v = Kernel.cpuid k task ~leaf:0 in
  Alcotest.(check int64) "host-provided cpuid" 0x756e6547L v;
  Alcotest.(check int) "#VE counted" 1 k.Kernel.stats.Kernel.ve_exits;
  Alcotest.(check int) "vmcall logged" 1 (Vmm.Host.vmcall_count host)

let test_timer_and_sched () =
  let k, _, _ = make_kernel () in
  let a = Kernel.create_task k ~name:"a" ~kind:Kernel.Task.Normal in
  let b = Kernel.create_task k ~name:"b" ~kind:Kernel.Task.Normal in
  Alcotest.(check bool) "a current" true (Kernel.Sched.current k.Kernel.sched = Some a);
  (* Quantum is 4 ticks; after 4 timer interrupts b runs. *)
  for _ = 1 to 4 do
    Kernel.timer_interrupt k
  done;
  Alcotest.(check bool) "b current" true (Kernel.Sched.current k.Kernel.sched = Some b);
  Alcotest.(check int) "timer irqs" 4 k.Kernel.stats.Kernel.timer_irqs;
  (* Exit b; scheduler falls back to a. *)
  Kernel.exit_task k b ~code:0;
  for _ = 1 to 4 do
    Kernel.timer_interrupt k
  done;
  Alcotest.(check bool) "back to a" true (Kernel.Sched.current k.Kernel.sched = Some a);
  Alcotest.(check int) "live tasks" 1 (Kernel.live_task_count k)

(* A timer tick builds nothing: its span is emitted inline and the
   scheduler is handed [context_switch] itself with the kernel as its
   argument. A tick that rotates reuses the off-CPU task's register save
   area instead of snapshotting into a fresh array. *)
let test_timer_tick_zero_alloc () =
  let k, cpu, _ = make_kernel () in
  let a = Kernel.create_task k ~name:"a" ~kind:Kernel.Task.Normal in
  for _ = 1 to 8 do
    Kernel.timer_interrupt k
  done;
  let probe =
    let x = Gc.minor_words () in
    Gc.minor_words () -. x
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Kernel.timer_interrupt k
  done;
  let words = Gc.minor_words () -. w0 -. probe in
  Alcotest.(check (float 0.0)) "1000 ticks, one task: zero minor words" 0.0 words;
  let b = Kernel.create_task k ~name:"b" ~kind:Kernel.Task.Normal in
  for _ = 1 to 8 do
    Kernel.timer_interrupt k
  done;
  let saved_a = a.Kernel.Task.saved_regs and saved_b = b.Kernel.Task.saved_regs in
  Alcotest.(check bool) "both tasks were switched out" true
    (Option.is_some saved_a && Option.is_some saved_b);
  cpu.Hw.Cpu.regs.(4) <- 0x7a5L;
  for _ = 1 to 40 do
    Kernel.timer_interrupt k
  done;
  let same x y = match (x, y) with Some p, Some q -> p == q | _ -> false in
  Alcotest.(check bool) "save areas reused" true
    (same saved_a a.Kernel.Task.saved_regs && same saved_b b.Kernel.Task.saved_regs);
  Alcotest.(check int64) "registers follow the task" 0x7a5L cpu.Hw.Cpu.regs.(4)

(* An exited task leaves the task table: a fork loop (fork, exit, then
   munmap every child region, as [Sim.Machine]'s [fork_exit] does) keeps it
   at its size. *)
let test_fork_exit_drops_tasks () =
  let k, _, _ = make_kernel ~frames:16384 () in
  let parent = Kernel.create_task k ~name:"parent" ~kind:Kernel.Task.Normal in
  let addr = Kernel.mmap k parent ~len:0x1000 ~prot:Kernel.Vma.prot_rw ~kind:Kernel.Vma.Anon in
  Result.get_ok (Kernel.populate k parent ~start:addr ~len:0x1000);
  let tasks0 = Hashtbl.length k.Kernel.tasks and live0 = Kernel.live_task_count k in
  for _ = 1 to 1000 do
    let child = Kernel.fork_process k parent ~name:"forked" in
    Kernel.exit_task k child ~code:0;
    Kernel.Vma.iter
      (fun r -> Result.get_ok (Kernel.munmap k child ~addr:r.Kernel.Vma.start))
      child.Kernel.Task.vmas
  done;
  Alcotest.(check int) "task table size" tasks0 (Hashtbl.length k.Kernel.tasks);
  Alcotest.(check int) "live tasks" live0 (Kernel.live_task_count k)

let test_exit_syscall () =
  let k, _, _ = make_kernel () in
  let t1 = Kernel.create_task k ~name:"x" ~kind:Kernel.Task.Normal in
  ignore (Kernel.syscall k t1 (Kernel.Syscall.Exit { code = 3 }));
  Alcotest.(check bool) "dead" true (t1.Kernel.Task.state = Kernel.Task.Dead);
  Alcotest.(check (option int)) "exit code" (Some 3) t1.Kernel.Task.exit_code

(* ------------------------------------------------------------------ *)
(* Fs                                                                  *)
(* ------------------------------------------------------------------ *)

let test_fs_basic () =
  let fs = Kernel.Fs.create () in
  Kernel.Fs.write_file fs "/a" (Bytes.of_string "one");
  Kernel.Fs.append_file fs "/a" (Bytes.of_string "+two");
  Alcotest.(check (option string)) "append" (Some "one+two")
    (Option.map Bytes.to_string (Kernel.Fs.read_file fs "/a"));
  Alcotest.(check (option int)) "size" (Some 7) (Kernel.Fs.file_size fs "/a");
  Alcotest.(check bool) "removed" true (Kernel.Fs.remove fs "/a");
  Alcotest.(check bool) "gone" false (Kernel.Fs.exists fs "/a")

let test_fs_special () =
  let fs = Kernel.Fs.create () in
  let sink = Buffer.create 16 in
  Kernel.Fs.register_special fs "/sys/debug/chan"
    ~read:(fun () -> Bytes.of_string "from-monitor")
    ~write:(fun b ~len -> Buffer.add_subbytes sink b 0 len);
  Alcotest.(check string) "special read" "from-monitor"
    (Bytes.to_string (Kernel.Fs.view fs "/sys/debug/chan"));
  ignore (Kernel.Fs.write_path fs "/sys/debug/chan" (Bytes.of_string "to-monitor"));
  Alcotest.(check string) "special write" "to-monitor" (Buffer.contents sink);
  (* The view form delivers only the length-bounded prefix. *)
  Buffer.clear sink;
  Alcotest.(check bool) "view delivered" true
    (Kernel.Fs.write_special_view fs "/sys/debug/chan"
       (Bytes.of_string "view-payload-XXXX") ~len:12);
  Alcotest.(check string) "view prefix" "view-payload" (Buffer.contents sink);
  Alcotest.(check bool) "view on regular path" false
    (Kernel.Fs.write_special_view fs "/not-special" Bytes.empty ~len:0)

(* ------------------------------------------------------------------ *)
(* Native privop costs (Table 4, Native column)                        *)
(* ------------------------------------------------------------------ *)

let test_native_privop_costs () =
  let k, _, _ = make_kernel () in
  let ops = k.Kernel.privops in
  let clock = k.Kernel.clock in
  let measure f =
    let t0 = Hw.Cycles.now clock in
    f ();
    Hw.Cycles.now clock - t0
  in
  let pte_addr = Hw.Phys_mem.addr_of_pfn k.Kernel.kernel_root + 8 * 400 in
  Alcotest.(check int) "pte write native" Hw.Cycles.Cost.pte_write_native
    (measure (fun () -> ops.Kernel.Privops.write_pte ~pte_addr Hw.Pte.empty));
  Alcotest.(check int) "cr native" Hw.Cycles.Cost.cr_write_native
    (measure (fun () -> ops.Kernel.Privops.set_cr_bit ~reg:`Cr4 Hw.Cr.cr4_smap true));
  Alcotest.(check int) "msr native" Hw.Cycles.Cost.msr_write_native
    (measure (fun () -> ops.Kernel.Privops.write_msr Hw.Msr.ia32_lstar 0x1234L));
  Alcotest.(check int) "lidt native" Hw.Cycles.Cost.lidt_native
    (measure (fun () -> ops.Kernel.Privops.lidt (Hw.Idt.create ())))

let test_count_pte_writes_wrapper () =
  let k, _, _ = make_kernel () in
  let counted, read_count = Kernel.Privops.count_pte_writes k.Kernel.privops in
  Alcotest.(check int) "starts at zero" 0 (read_count ());
  let pte_addr = Hw.Phys_mem.addr_of_pfn k.Kernel.kernel_root + (8 * 450) in
  counted.Kernel.Privops.write_pte ~pte_addr Hw.Pte.empty;
  counted.Kernel.Privops.write_pte ~pte_addr Hw.Pte.empty;
  Alcotest.(check int) "counts stores" 2 (read_count ());
  (* The underlying table is untouched by the wrapper. *)
  k.Kernel.privops.Kernel.Privops.write_pte ~pte_addr Hw.Pte.empty;
  Alcotest.(check int) "unwrapped not counted" 2 (read_count ())

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kernel"
    [
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "contig" `Quick test_alloc_contig;
          qt prop_alloc_unique;
        ] );
      ( "vma",
        [
          Alcotest.test_case "add/find" `Quick test_vma_add_find;
          Alcotest.test_case "rejects" `Quick test_vma_rejects;
          Alcotest.test_case "find gap" `Quick test_vma_find_gap;
          Alcotest.test_case "fork copies, parent's later mmap unseen" `Quick
            test_vma_fork_isolated;
          Alcotest.test_case "iter while munmap removes" `Quick test_vma_iter_while_unmapping;
          Alcotest.test_case "clone shares the VMA set" `Quick test_vma_clone_shares;
          qt prop_vma_model;
        ] );
      ( "boot",
        [
          Alcotest.test_case "state" `Quick test_boot_state;
          Alcotest.test_case "direct map on demand" `Quick test_direct_map_on_demand;
        ] );
      ( "paging",
        [
          Alcotest.test_case "task paging" `Quick test_task_paging;
          Alcotest.test_case "segfaults" `Quick test_fault_outside_vma_segfaults;
          Alcotest.test_case "populate pins" `Quick test_populate_pins;
          Alcotest.test_case "clone/fork" `Quick test_clone_shares_fork_copies;
          Alcotest.test_case "munmap frees" `Quick test_munmap_frees;
          Alcotest.test_case "write_pte flushes tlb" `Quick test_write_pte_flushes_tlb;
          Alcotest.test_case "write_pte_batch flushes tlb" `Quick test_write_pte_batch_flushes_tlb;
          Alcotest.test_case "munmap flushes tlb" `Quick test_munmap_flushes_tlb;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "file roundtrip" `Quick test_syscall_file_roundtrip;
          Alcotest.test_case "brk/mmap" `Quick test_syscall_brk_mmap;
          Alcotest.test_case "futex" `Quick test_syscall_futex;
          Alcotest.test_case "counters and cost" `Quick test_syscall_counters_and_cost;
          Alcotest.test_case "getpid allocates nothing" `Quick test_getpid_zero_alloc;
          Alcotest.test_case "cpuid #VE" `Quick test_cpuid_ve_path;
          Alcotest.test_case "timer/sched" `Quick test_timer_and_sched;
          Alcotest.test_case "timer tick allocates nothing" `Quick test_timer_tick_zero_alloc;
          Alcotest.test_case "exit" `Quick test_exit_syscall;
          Alcotest.test_case "fork/exit loop keeps the task table" `Quick
            test_fork_exit_drops_tasks;
        ] );
      ( "fs",
        [
          Alcotest.test_case "basic" `Quick test_fs_basic;
          Alcotest.test_case "special nodes" `Quick test_fs_special;
        ] );
      ( "costs",
        [
          Alcotest.test_case "native privops" `Quick test_native_privop_costs;
          Alcotest.test_case "pte-write counter" `Quick test_count_pte_writes_wrapper;
        ] );
    ]
