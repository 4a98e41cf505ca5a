type policy = {
  exit_rate_limit : int option;
  output_quantum : int option;
  flush_on_exit : bool;
}

let none = { exit_rate_limit = None; output_quantum = None; flush_on_exit = false }

let paranoid =
  {
    exit_rate_limit = Some 2000;
    output_quantum = Some 21_000_000 (* 10 ms at 2.1 GHz *);
    flush_on_exit = true;
  }

let cache_flush_cost = 9000 (* partial LLC + TLB eviction on each exit *)

type t = {
  clock : Hw.Cycles.clock;
  cpu : Hw.Cpu.t;
  policy : policy;
  mutable window_start : int;   (* beginning of the current 1 s window *)
  mutable window_exits : int;
  mutable stalls : int;
  mutable stall_cycles : int;
  mutable flushes : int;
}

let window = 2_100_000_000 (* one second of cycles *)

let create ~clock ~cpu policy =
  {
    clock;
    cpu;
    policy;
    window_start = Hw.Cycles.now clock;
    window_exits = 0;
    stalls = 0;
    stall_cycles = 0;
    flushes = 0;
  }

let policy t = t.policy

let roll_window t =
  let now = Hw.Cycles.now t.clock in
  if now - t.window_start >= window then begin
    t.window_start <- now - ((now - t.window_start) mod window);
    t.window_exits <- 0
  end

let on_sandbox_exit t =
  if t.policy.flush_on_exit then begin
    t.flushes <- t.flushes + 1;
    Hw.Cpu.flush_tlb t.cpu;
    Hw.Cycles.advance t.clock cache_flush_cost
  end;
  match t.policy.exit_rate_limit with
  | None -> ()
  | Some limit ->
      roll_window t;
      t.window_exits <- t.window_exits + 1;
      if t.window_exits > limit then begin
        (* Budget exhausted: park the sandbox until the window rolls. *)
        let now = Hw.Cycles.now t.clock in
        let wait = t.window_start + window - now in
        if wait > 0 then begin
          t.stalls <- t.stalls + 1;
          t.stall_cycles <- t.stall_cycles + wait;
          Hw.Cycles.advance t.clock wait
        end;
        roll_window t
      end

let release_output t =
  match t.policy.output_quantum with
  | None -> ()
  | Some quantum ->
      let now = Hw.Cycles.now t.clock in
      let rem = now mod quantum in
      if rem > 0 then begin
        t.stalls <- t.stalls + 1;
        t.stall_cycles <- t.stall_cycles + (quantum - rem);
        Hw.Cycles.advance t.clock (quantum - rem)
      end

let stalls t = t.stalls
let stall_cycles t = t.stall_cycles
let flushes t = t.flushes
