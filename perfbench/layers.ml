(* Per-layer timing taken from outside the program: the benchmark wraps
   the public calls of each layer and never edits the layer itself.

   - [run_ba] re-creates [Core.Runner.run_ba]'s wiring (engine, shared
     Ba context, one handler per process, proposals, monotone
     termination predicate) with spans around [Ba.handle]/[Ba.propose],
     [Engine.broadcast], the handler closure and [Engine.run].
   - [Timed_benor] is [Mc.Protos.Benor_p] with spans around its step,
     clone and encode functions, for [Mc.Search.Make].
   - [Gc_pause] reads this process's own runtime_events ring.
   All clocks are the monotonic nanosecond clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_of_ns (now_ns () - t0))

(* ------------------------------ BA path ------------------------------ *)

type ba_spans = {
  mutable run : int;             (* Engine.run *)
  mutable handler : int;         (* handler closures inside Engine.run *)
  mutable handle_run : int;      (* Ba.handle *)
  mutable propose : int;         (* Ba.propose, before Engine.run *)
  mutable bcast_run : int;       (* Engine.broadcast from handlers *)
  mutable bcast_propose : int;   (* Engine.broadcast from proposals *)
  mutable build : int;           (* Ba.make_ctx + n Ba.create *)
  mutable hooks : int;           (* observer hooks (on_send/on_deliver) *)
  mutable handle_calls : int;    (* Ba.handle calls *)
  mutable broadcasts : int;
  mutable deliveries : int;
}

let ba_spans () =
  {
    run = 0;
    handler = 0;
    handle_run = 0;
    propose = 0;
    bcast_run = 0;
    bcast_propose = 0;
    build = 0;
    hooks = 0;
    handle_calls = 0;
    broadcasts = 0;
    deliveries = 0;
  }

(* What the traced path must reproduce exactly from Runner.run_ba. *)
type ba_result = { steps : int; words : int; decisions : (int * int) list; all_decided : bool }

let ba_result_of_outcome (o : Core.Runner.outcome) =
  { steps = o.steps; words = o.words; decisions = o.decisions; all_decided = o.all_decided }

(* [probe] attaches observers exactly as [run_ba ~probe] does; with
   [time_hooks] the observers are bracketed by timing hooks registered
   before and after them (observers fire in registration order). *)
let run_ba sp ?probe ?(time_hooks = false) ~keyring ~params ~inputs ~seed () =
  let n = params.Core.Params.n in
  let eng = Sim.Engine.create ~scheduler:(Sim.Scheduler.random ()) ~n ~seed () in
  (match probe with
  | Some attach ->
      if time_hooks then begin
        let t0 = ref 0 in
        let start _ = t0 := now_ns () in
        let stop _ = sp.hooks <- sp.hooks + (now_ns () - !t0) in
        Sim.Engine.on_send eng start;
        Sim.Engine.on_deliver eng start;
        attach eng;
        Sim.Engine.on_send eng stop;
        Sim.Engine.on_deliver eng stop
      end
      else attach eng
  | None -> ());
  let instance = Core.Runner.ba_instance_name ~seed in
  let t0 = now_ns () in
  let ctx = Core.Ba.make_ctx ~keyring ~params () in
  let procs = Array.init n (fun pid -> Core.Ba.create ~ctx ~keyring ~params ~pid ~instance ()) in
  sp.build <- sp.build + (now_ns () - t0);
  let in_run = ref false in
  let perform pid actions =
    List.iter
      (function
        | Core.Ba.Broadcast m ->
            let t0 = now_ns () in
            Sim.Engine.broadcast eng ~src:pid ~words:(Core.Ba.words_of_msg m) m;
            let dt = now_ns () - t0 in
            if !in_run then sp.bcast_run <- sp.bcast_run + dt
            else sp.bcast_propose <- sp.bcast_propose + dt;
            sp.broadcasts <- sp.broadcasts + 1
        | Core.Ba.Decide _ -> ())
      actions
  in
  Array.iteri
    (fun pid p ->
      Sim.Engine.set_handler eng pid (fun e ->
          let t0 = now_ns () in
          let actions = Core.Ba.handle p ~src:e.Sim.Envelope.src e.Sim.Envelope.payload in
          let t1 = now_ns () in
          sp.handle_run <- sp.handle_run + (t1 - t0);
          sp.handle_calls <- sp.handle_calls + 1;
          (* most deliveries send nothing: spare them a third clock read *)
          if actions = [] then sp.handler <- sp.handler + (t1 - t0)
          else begin
            perform pid actions;
            sp.handler <- sp.handler + (now_ns () - t0)
          end))
    procs;
  Array.iteri
    (fun pid p ->
      if Sim.Engine.is_correct eng pid then begin
        let t0 = now_ns () in
        let actions = Core.Ba.propose p inputs.(pid) in
        sp.propose <- sp.propose + (now_ns () - t0);
        perform pid actions
      end)
    procs;
  let all_decided =
    Sim.Engine.all_correct_monotone eng (fun pid -> Core.Ba.decision procs.(pid) <> None)
  in
  in_run := true;
  let t0 = now_ns () in
  let _ : Sim.Engine.run_result = Sim.Engine.run eng ~until:all_decided in
  sp.run <- sp.run + (now_ns () - t0);
  sp.deliveries <- sp.deliveries + Sim.Engine.step eng;
  let decisions =
    List.filter_map
      (fun pid -> Option.map (fun d -> (pid, d)) (Core.Ba.decision procs.(pid)))
      (Sim.Engine.correct_pids eng)
  in
  {
    steps = Sim.Engine.step eng;
    words = (Sim.Engine.metrics eng).Sim.Metrics.correct_words;
    decisions;
    all_decided = all_decided ();
  }

(* --------------------------- checker path ---------------------------- *)

type mc_spans = { mutable step : int; mutable clone : int; mutable encode : int }

let mc_spans = { step = 0; clone = 0; encode = 0 }

module Timed_benor = struct
  module P = Mc.Protos.Benor_p
  include P

  let timed add f =
    let t0 = now_ns () in
    let r = f () in
    add (now_ns () - t0);
    r

  let add_step dt = mc_spans.step <- mc_spans.step + dt
  let add_clone dt = mc_spans.clone <- mc_spans.clone + dt
  let add_encode dt = mc_spans.encode <- mc_spans.encode + dt
  let propose s v = timed add_step (fun () -> P.propose s v)
  let handle s ~src m = timed add_step (fun () -> P.handle s ~src m)
  let clone s = timed add_clone (fun () -> P.clone s)
  let encode b s = timed add_encode (fun () -> P.encode b s)
  let encode_msg b m = timed add_encode (fun () -> P.encode_msg b m)
end

(* ------------------------------ GC pauses ---------------------------- *)

module Gc_pause = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    depth : int ref;     (* open tracked phases *)
    total_ns : int ref;
    lost : int ref;      (* events overwritten before they were read *)
    lost_in : int ref;   (* of those, the ones lost inside [around] *)
  }

  (* Minor collections and major slices are the stop-the-world pauses of
     a single-domain program; nested phases count once. *)
  let tracked = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let start () =
    Runtime_events.start ();
    let depth = ref 0 and since = ref 0L and total_ns = ref 0 and lost = ref 0 in
    let stamp ts = Runtime_events.Timestamp.to_int64 ts in
    let runtime_begin _ ts phase =
      if tracked phase then begin
        if !depth = 0 then since := stamp ts;
        incr depth
      end
    in
    let runtime_end _ ts phase =
      if tracked phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then total_ns := !total_ns + Int64.to_int (Int64.sub (stamp ts) !since)
      end
    in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks =
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
          ~lost_events:(fun _ k -> lost := !lost + k)
          ();
      depth;
      total_ns;
      lost;
      lost_in = ref 0;
    }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  (* Pause seconds accrued while [f] ran.  Work between two [around]s may
     overflow the ring; draining it first and closing any phase whose end
     was lost keeps that out of the count. *)
  let around t f =
    poll t;
    t.depth := 0;
    let before = !(t.total_ns) and lost = !(t.lost) in
    let r = f () in
    poll t;
    t.lost_in := !(t.lost_in) + (!(t.lost) - lost);
    (r, secs_of_ns (!(t.total_ns) - before))
end

(* ----------------------------- micro probes -------------------------- *)

(* Median per-call seconds of [f k] over [batches] batches of [calls]
   calls each, [k] counting calls across batches so that no two calls
   share an input. *)
let per_call ~batches ~calls f =
  let k = ref 0 in
  Stats.median
    (List.init batches (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to calls do
           f !k;
           incr k
         done;
         secs_of_ns (now_ns () - t0) /. float_of_int calls))

type vrf_micro = { prove : float; verify : float; sign : float; verify_sig : float }

(* Direct keyring calls with the verify memo disabled, so every call does
   the full cryptographic work. *)
let vrf_micro ~backend ~n ~calls =
  let kr = Vrf.Keyring.create ~backend ~cache_bound:0 ~n ~seed:"perfbench-micro" () in
  Vrf.Keyring.warm kr;
  let alpha k = Printf.sprintf "perfbench-alpha-%d" k in
  let signer k = k mod n in
  let outs = Array.init (5 * calls) (fun k -> Vrf.Keyring.prove kr (signer k) (alpha k)) in
  let sigs = Array.init (5 * calls) (fun k -> Vrf.Keyring.sign kr (signer k) (alpha k)) in
  let check ok = if not ok then failwith "perfbench: a valid VRF proof or signature failed to verify" in
  let per_call = per_call ~batches:5 ~calls in
  {
    (* fresh inputs: the keyring memoizes proofs per (signer, alpha) *)
    prove = per_call (fun k -> ignore (Vrf.Keyring.prove kr (signer k) (alpha (k + (5 * calls)))));
    verify =
      per_call (fun k -> check (Vrf.Keyring.verify kr ~signer:(signer k) (alpha k) outs.(k)));
    sign = per_call (fun k -> ignore (Vrf.Keyring.sign kr (signer k) (alpha k) : string));
    verify_sig =
      per_call (fun k ->
          check (Vrf.Keyring.verify_sig kr ~signer:(signer k) (alpha k) sigs.(k)));
  }

(* Montgomery exponentiation and multiplication modulo the DLEQ group's
   prime, with full-size subgroup exponents. *)
let bignum_micro ~qbits =
  let grp = Vrf.Group.generate ~qbits ~seed:"perfbench-bignum" () in
  let open Bignum.Bigint in
  let ctx = Mont.create (Vrf.Group.p grp) in
  let x = Mont.to_mont ctx (Vrf.Group.hash_to_group grp "perfbench-x") in
  let y = Mont.to_mont ctx (Vrf.Group.hash_to_group grp "perfbench-y") in
  let exps = Array.init 16 (fun k -> Vrf.Group.hash_to_scalar grp (string_of_int k)) in
  let sink = ref x in
  let powm = per_call ~batches:5 ~calls:16 (fun k -> sink := Mont.powm ctx x exps.(k mod 16)) in
  let mul = per_call ~batches:5 ~calls:20_000 (fun _ -> sink := Mont.mul ctx !sink y) in
  ignore (Sys.opaque_identity !sink);
  (powm, mul)

(* A fixed host-speed probe that runs no program code: it fills a
   standard-library hash table with 50,000 boxed entries and drops it.
   The program is allocation-heavy (hundreds of minor-heap words per
   delivery), and the host's slow phases slow allocation, promotion and
   marking more than they slow arithmetic: on repeated runs of one
   ba-dleq seed, scaling by this probe cut the run-to-run spread of the
   mean instance time by a third to a half, where a register-only
   multiply loop cut it by a tenth to a fifth (NOTES.md).  Call it on a
   collected heap, so that it never pays for the program's garbage. *)
let ref_loop () =
  let h = Hashtbl.create 16 in
  for i = 1 to 50_000 do
    Hashtbl.replace h (i * 7919) (float_of_int i, string_of_int i)
  done;
  ignore (Sys.opaque_identity (Hashtbl.fold (fun _ (f, _) a -> a +. f) h 0.0))
