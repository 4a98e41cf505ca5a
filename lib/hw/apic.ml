type t = {
  clock : Cycles.clock;
  mutable period : int;
  mutable deadline : int;
  mutable fired : int;
}

let create clock ~period =
  if period <= 0 then invalid_arg "Apic.create: period must be positive";
  { clock; period; deadline = Cycles.now clock + period; fired = 0 }

let set_period t p =
  if p <= 0 then invalid_arg "Apic.set_period: period must be positive";
  t.period <- p;
  t.deadline <- Cycles.now t.clock + p

let pending t = Cycles.now t.clock >= t.deadline
let deadline t = t.deadline

let acknowledge t =
  if pending t then begin
    t.fired <- t.fired + 1;
    let now = Cycles.now t.clock in
    (* Re-arm relative to now: missed periods coalesce into one interrupt. *)
    t.deadline <- now + t.period
  end

let fired_count t = t.fired
