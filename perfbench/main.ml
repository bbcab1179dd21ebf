(* The repository's benchmark.  See NOTES.md beside this file for what each
   workload is for and how the design keeps figures steady.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit C]

   One process, one domain.  Each workload runs a fixed list of instances
   derived from the seed; [--seconds] sets the list's length (a fixed
   number of instances per second, calibrated on a 2-core x86-64 host),
   never a deadline, so every count repeats exactly for a given
   (seed, seconds).  Set-up samples and a host-speed probe are interleaved
   between instances, and end-to-end times are scaled by the probe (see
   [adjust]).  [--trace 0] calls the program exactly as users do and
   prints the end-to-end metrics; [--trace 1] runs a shorter list
   through the layer-timing wrappers of [Layers] as well and prints the
   per-layer metrics.  The last line of standard output is the result
   object; the line before it records provenance and sample counts. *)

module L = Layers

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ----------------------------- workloads ----------------------------- *)

type kind = Ba of { backend : Vrf.backend; observed : bool } | Check

type workload = {
  name : string;
  kind : kind;
  n : int;
  per_second : float;         (* instances per --seconds, untraced *)
  traced_per_second : float;  (* instances per --seconds, traced *)
  setups : int;               (* set-up samples per run *)
  setup_batch : int;          (* set-ups timed together in one sample *)
}

let workloads =
  [
    {
      name = "ba-dleq";
      kind = Ba { backend = Vrf.Dleq { qbits = 160 }; observed = false };
      n = 128;
      per_second = 0.65;
      traced_per_second = 0.3;
      setups = 8;
      setup_batch = 1;
    };
    {
      name = "ba-mock";
      kind = Ba { backend = Vrf.Mock; observed = false };
      n = 256;
      per_second = 1.8;
      traced_per_second = 0.7;
      setups = 24;
      setup_batch = 10;
    };
    {
      name = "ba-observed";
      kind = Ba { backend = Vrf.Mock; observed = true };
      n = 128;
      per_second = 0.72;
      traced_per_second = 0.45;
      setups = 24;
      setup_batch = 10;
    };
    {
      name = "check-benor";
      kind = Check;
      n = 4;
      per_second = 0.36;
      traced_per_second = 0.16;
      setups = 24;
      setup_batch = 20_000;
    };
  ]

(* The CLI's defaults: lambda = max(8 ln n, 6.4 sqrt n), epsilon 0.25, d 0.04. *)
let make_params n =
  let lambda =
    min n (max (Core.Params.default_lambda ~n) (int_of_float (6.4 *. sqrt (float_of_int n))))
  in
  Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda ~n ()

(* Instance seeds depend on the workload seed only, so ba-observed runs
   ba-mock's instance seeds (at its own n) for the same seed. *)
let instance_seeds ~seed count =
  let rng = Crypto.Rng.create seed in
  List.init count (fun _ -> Crypto.Rng.int rng (1 lsl 30))

let keyring_seed seed = Printf.sprintf "perfbench-%d" seed

(* Ben-Or n=4 t=1, pid 3 Byzantine and active with one injection, FIFO
   links, round horizon 0: the `check --byz 3 --active-byz` defaults. *)
let mc_config coin =
  {
    Mc.Search.n = 4;
    f = 1;
    byz = Some 3;
    active_byz = true;
    max_inject = 1;
    coin;
    max_rounds = 0;
    max_states = 2_000_000;
    fifo = true;
  }

let check_cases ~seed count =
  let rng = Crypto.Rng.create seed in
  List.init count (fun _ ->
      let inputs = Array.init 4 (fun pid -> if pid = 3 then 0 else Crypto.Rng.int rng 2) in
      (inputs, Crypto.Rng.bool rng))

(* ------------------------------ samples ------------------------------ *)

(* One instance as users run it. *)
type sample = {
  secs : float;        (* wall seconds of the instance *)
  events : int;        (* deliveries, or checker transitions *)
  work : int;          (* words by correct processes, or distinct states *)
  decided : bool;      (* every correct process decided *)
  minor : float;       (* Gc.quick_stat deltas *)
  major : float;
  major_collections : int;
  pause : float;       (* GC pause seconds, traced runs only *)
}

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_words -. g0.Gc.major_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* Set-up as users pay it: keyring creation, key warm-up and parameters;
   for the checker, the search configuration, injection alphabet and
   initial process states.  Returns (seconds per set-up, warm seconds per
   set-up) for one sample of [setup_batch] set-ups.  Sample [j] of every
   run uses the same keyring seed whatever the workload seed: the DLEQ
   group's prime search takes a seed-dependent number of candidates
   (0.09-0.32 s at qbits 160), and a fixed panel keeps that luck out of
   the run-to-run spread. *)
let setup_sample w j =
  let batch = w.setup_batch in
  let seed = Printf.sprintf "perfbench-setup-%d" j in
  let warm = ref 0.0 in
  let (), secs =
    L.time (fun () ->
        for _ = 1 to batch do
          match w.kind with
          | Ba { backend; _ } ->
              let kr = Vrf.Keyring.create ~backend ~n:w.n ~seed () in
              let (), dt = L.time (fun () -> Vrf.Keyring.warm kr) in
              warm := !warm +. dt;
              ignore (Sys.opaque_identity (make_params w.n))
          | Check ->
              let cfg = mc_config false in
              let module P = Mc.Protos.Benor_p in
              let alphabet = P.alphabet ~n:cfg.n ~f:cfg.f ~byz:3 ~max_round:cfg.max_rounds in
              let procs =
                Array.init cfg.n (fun pid -> P.create ~n:cfg.n ~f:cfg.f ~coin:cfg.coin ~pid)
              in
              let sent = Array.mapi (fun pid p -> P.propose p (pid land 1)) procs in
              ignore (Sys.opaque_identity (cfg, alphabet, sent))
        done)
  in
  (secs /. float_of_int batch, !warm /. float_of_int batch)

let warm_keyring ~backend ~n ~seed =
  let kr = Vrf.Keyring.create ~backend ~n ~seed:(keyring_seed seed) () in
  Vrf.Keyring.warm kr;
  kr

let same_ba ~what (a : L.ba_result) (b : L.ba_result) =
  if a <> b then
    fail "%s: deliveries/words/decisions differ (%d/%d/%d vs %d/%d/%d)" what a.steps a.words
      (List.length a.decisions) b.steps b.words (List.length b.decisions)

(* Observation as `ba --emit-metrics --emit-events` attaches it, exported
   per instance into a buffer that is then discarded. *)
type observer = { metrics : Obs.Metrics.t; trace : Sim.Trace.t; mutable span : Obs.Span.t option }

let observer () = { metrics = Obs.Metrics.create (); trace = Sim.Trace.create (); span = None }

let attach ob eng =
  Core.Instrument.attach_ba eng ~metrics:ob.metrics;
  Sim.Trace.attach ob.trace eng;
  let sp = Obs.Span.create (Obs.Span.engine_clock eng) in
  Obs.Span.begin_span sp "trial-0";
  ob.span <- Some sp

let sink = Buffer.create (1 lsl 20)

let export ob ~params o =
  let spans =
    match ob.span with
    | Some sp ->
        Obs.Span.end_span sp;
        [ sp ]
    | None -> []
  in
  let doc =
    Core.Instrument.metrics_doc ~params ~outcomes:[ Core.Instrument.outcome_json o ] ~spans
      ~metrics:ob.metrics ()
  in
  Obs.Json.to_buffer sink doc;
  List.iter
    (fun j ->
      Obs.Json.to_buffer sink j;
      Buffer.add_char sink '\n')
    (Obs.Export.trace_jsonl ~run:0 ob.trace);
  Buffer.reset sink

(* ------------------------------ metrics ------------------------------ *)

let metric name value unit = { Report.name; value; unit }

(* Per-layer accumulators: sums over the traced instances. *)
type layer_sums = {
  mutable count : int;
  mutable workload_s : float;  (* the instance as users run it *)
  mutable traced_s : float;    (* the same instance through Layers *)
  mutable observe_s : float;
  mutable export_s : float;
  mutable kept : int;
  mutable dropped : int;
  mutable verifies : int;
  mutable memo_hits : int;
  mutable memo_lookups : int;
  mutable mc_total : int;      (* ns in the traced check_inputs *)
  mutable transitions : int;
}

let layer_sums () =
  {
    count = 0;
    workload_s = 0.0;
    traced_s = 0.0;
    observe_s = 0.0;
    export_s = 0.0;
    kept = 0;
    dropped = 0;
    verifies = 0;
    memo_hits = 0;
    memo_lookups = 0;
    mc_total = 0;
    transitions = 0;
  }

(* ------------------------------- runs -------------------------------- *)

type run = {
  samples : sample list;  (* in list order *)
  setup : (int * float) list;  (* (slot, seconds): slot i precedes instance i *)
  warm : float list;
  host : float array;     (* ref-loop ms before each instance, and after the last *)
  layers : layer_sums;
  ba_spans : L.ba_spans;
  gc_events_lost : int;   (* GC events lost while an instance was measured *)
}

let run_workload w ~seed ~count ~traced =
  let gc_pause = if traced then Some (L.Gc_pause.start ()) else None in
  let with_pause f =
    match gc_pause with Some g -> L.Gc_pause.around g f | None -> (f (), 0.0)
  in
  let setup = ref [] and warm = ref [] and host = ref [] in
  let slot i = ((i + 1) * w.setups / count) - (i * w.setups / count) in
  (* The probe's first calls grow the heap and page it in: keep them
     untimed. *)
  for _ = 1 to 3 do
    L.ref_loop ()
  done;
  let probe () =
    Gc.full_major ();
    let (), dt = L.time L.ref_loop in
    host := (dt *. 1000.0) :: !host
  in
  (* Every timed piece starts on a collected heap, as in a fresh process:
     otherwise it pays for marking and sweeping what earlier instances
     left, an amount that depends on where it falls in the run. *)
  let interleave i =
    probe ();
    for _ = 1 to slot i do
      Gc.full_major ();
      let s, wm = setup_sample w (List.length !setup) in
      setup := (i, s) :: !setup;
      warm := wm :: !warm
    done;
    Gc.full_major ()
  in
  let sums = layer_sums () in
  let spans = L.ba_spans () in
  let samples =
    match w.kind with
    | Ba { backend; observed } ->
        let params = make_params w.n in
        (* Separate keyrings per path: each keeps its own verify memo, so
           no path runs on verdicts another one cached. *)
        let kr_user = warm_keyring ~backend ~n:w.n ~seed in
        let kr_plain = if observed then Some (warm_keyring ~backend ~n:w.n ~seed) else None in
        let kr_traced = if traced then Some (warm_keyring ~backend ~n:w.n ~seed) else None in
        List.mapi
          (fun i s ->
            interleave i;
            let what = Printf.sprintf "%s instance %d (seed %d)" w.name i s in
            let inputs = Array.init w.n (fun p -> (p + i) mod 2) in
            let run_ba ?probe keyring () =
              Core.Runner.run_ba ~scheduler:(Sim.Scheduler.random ()) ?probe ~keyring ~params
                ~inputs ~seed:s ()
            in
            let ob = observer () in
            (* Traced runs read the GC event ring every 1024 deliveries
               too: an observed instance overflows it between instances. *)
            let probe =
              match gc_pause with
              | Some g ->
                  Some
                    (fun eng ->
                      if observed then attach ob eng;
                      let k = ref 0 in
                      Sim.Engine.on_deliver eng (fun _ ->
                          incr k;
                          if !k land 1023 = 0 then L.Gc_pause.poll g))
              | None -> if observed then Some (attach ob) else None
            in
            let ((o, run_s, export_s), minor, major, major_collections), pause =
              with_pause (fun () ->
                  gc_delta (fun () ->
                      if observed then begin
                        let o, run_s = L.time (run_ba ?probe kr_user) in
                        let (), export_s = L.time (fun () -> export ob ~params o) in
                        (o, run_s, export_s)
                      end
                      else
                        let o, run_s = L.time (run_ba ?probe kr_user) in
                        (o, run_s, 0.0)))
            in
            if not o.agreement then fail "%s: correct processes disagree" what;
            let user = L.ba_result_of_outcome o in
            (match kr_plain with
            | Some kr ->
                (* observers are passive: the plain run must match *)
                Gc.full_major ();
                let plain, plain_s = L.time (run_ba kr) in
                same_ba ~what:(what ^ ", observed vs plain") user (L.ba_result_of_outcome plain);
                sums.observe_s <- sums.observe_s +. (run_s -. plain_s);
                sums.export_s <- sums.export_s +. export_s;
                sums.kept <- sums.kept + Sim.Trace.length ob.trace;
                sums.dropped <- sums.dropped + Sim.Trace.dropped ob.trace
            | None -> ());
            (match kr_traced with
            | Some keyring ->
                let before = Vrf.Keyring.verify_cache_stats keyring in
                let probe = if observed then Some (attach (observer ())) else None in
                Gc.full_major ();
                let r, traced_s =
                  L.time (fun () ->
                      L.run_ba spans ?probe ~time_hooks:observed ~keyring ~params ~inputs ~seed:s
                        ())
                in
                same_ba ~what:(what ^ ", traced vs Runner.run_ba") user r;
                let after = Vrf.Keyring.verify_cache_stats keyring in
                sums.count <- sums.count + 1;
                sums.workload_s <- sums.workload_s +. run_s;
                sums.traced_s <- sums.traced_s +. traced_s;
                sums.verifies <- sums.verifies + (after.misses - before.misses);
                sums.memo_hits <- sums.memo_hits + (after.hits - before.hits);
                sums.memo_lookups <-
                  sums.memo_lookups + (after.hits + after.misses - before.hits - before.misses)
            | None -> ());
            {
              secs = run_s +. export_s;
              events = o.steps;
              work = o.words;
              decided = o.all_decided;
              minor;
              major;
              major_collections;
              pause;
            })
          (instance_seeds ~seed count)
    | Check ->
        let module M = Mc.Search.Make (Mc.Protos.Benor_p) in
        let module T = Mc.Search.Make (L.Timed_benor) in
        List.mapi
          (fun i (inputs, coin) ->
            interleave i;
            let what =
              Printf.sprintf "%s instance %d (inputs %s, coin %b)" w.name i
                (String.concat "" (Array.to_list (Array.map string_of_int inputs)))
                coin
            in
            let cfg = mc_config coin in
            let ((s, secs), minor, major, major_collections), pause =
              with_pause (fun () -> gc_delta (fun () -> L.time (fun () -> M.check_inputs cfg inputs)))
            in
            if s.Mc.Search.s_truncated then fail "%s: search truncated" what;
            (match s.s_violation with
            | Some v -> fail "%s: %s violated: %s" what v.v_invariant v.v_detail
            | None -> ());
            if traced then begin
              Gc.full_major ();
              let t0 = L.now_ns () in
              let s' = T.check_inputs cfg inputs in
              let dt = L.now_ns () - t0 in
              if s'.s_states <> s.s_states || s'.s_transitions <> s.s_transitions then
                fail "%s: traced search differs (%d/%d vs %d/%d states/transitions)" what
                  s'.s_states s'.s_transitions s.s_states s.s_transitions;
              sums.count <- sums.count + 1;
              sums.workload_s <- sums.workload_s +. secs;
              sums.traced_s <- sums.traced_s +. L.secs_of_ns dt;
              sums.mc_total <- sums.mc_total + dt;
              sums.transitions <- sums.transitions + s.s_transitions
            end;
            {
              secs;
              events = s.s_transitions;
              work = s.s_states;
              decided = true;
              minor;
              major;
              major_collections;
              pause;
            })
          (check_cases ~seed count)
  in
  probe ();
  {
    samples;
    setup = List.rev !setup;
    warm = List.rev !warm;
    host = Array.of_list (List.rev !host);
    layers = sums;
    ba_spans = spans;
    gc_events_lost = (match gc_pause with Some g -> !(g.L.Gc_pause.lost_in) | None -> 0);
  }

(* --------------------------- metric sets ----------------------------- *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

(* Host adjustment.  The host's speed swings by a quarter and more, in
   phases from seconds to minutes long, and such a phase moves every time
   in a run together.  Each timed piece of slot [i] (its set-up samples
   and instance [i]) is scaled to a host on which the probe [L.ref_loop]
   takes [ref_loop_ms], by the probe's mean time just before and just
   after the slot.  The probe runs no program code, so a change to the
   program moves the adjusted times as it moves the raw ones.  The raw
   figures are in the provenance line. *)
let ref_loop_ms = 16.0

let adjust r i secs = secs *. ref_loop_ms /. ((r.host.(i) +. r.host.(i + 1)) /. 2.0)

let end_to_end w r =
  let raw = List.map (fun s -> s.secs) r.samples in
  let secs = List.mapi (adjust r) raw in
  let setup = List.map (fun (i, s) -> adjust r i s) r.setup in
  let events = List.map (fun s -> s.events) r.samples in
  let n = float_of_int (List.length r.samples) in
  let tail = Stats.tail secs in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let metrics =
    [
      metric "setup_s" (Stats.median setup) "s";
      metric "instance_s" (Stats.mean secs) "s";
      metric "instance_tail_s" tail.value "s";
      metric "events_per_s" (Stats.rate_median ~events ~secs) "1/s";
      metric "decided_share"
        (sum (fun s -> if s.decided then 1.0 else 0.0) r.samples /. n)
        "ratio";
      metric "alloc_words_per_event"
        (sum (fun s -> s.minor) r.samples /. sum (fun s -> float_of_int s.events) r.samples)
        "words";
      metric "top_heap_mb" (float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6) "MB";
      metric "work_per_instance" (sum (fun s -> float_of_int s.work) r.samples /. n) "count";
    ]
  in
  let floats xs = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) xs) in
  let sample_counts =
    [
      ("setup_s", Obs.Json.Int (List.length setup));
      ("setup_batch", Obs.Json.Int w.setup_batch);
      ("instance_s", Obs.Json.Int (List.length secs));
      ( "instance_tail_s",
        Obs.Json.Obj
          [
            ("samples", Obs.Json.Int (List.length secs));
            ("percentile", Obs.Json.Int tail.pct);
            ("beyond", Obs.Json.Int tail.beyond);
          ] );
      ("events_per_s", Obs.Json.Int (List.length secs));
      ("host_ref_loop", Obs.Json.Int (Array.length r.host));
    ]
  in
  let raw_tail = Stats.tail raw in
  let unadjusted =
    [
      ("setup_s", Obs.Json.Float (Stats.median (List.map snd r.setup)));
      ("instance_s", Obs.Json.Float (Stats.mean raw));
      ("instance_tail_s", Obs.Json.Float raw_tail.value);
      ("events_per_s", Obs.Json.Float (Stats.rate_median ~events ~secs:raw));
      ("events_per_s_mean", Obs.Json.Float (Stats.rate_mean ~events ~secs:raw));
      ("setup_secs", floats (List.map snd r.setup));
      ("instance_secs", floats raw);
      ("instance_events", Obs.Json.List (List.map (fun e -> Obs.Json.Int e) events));
      ("host_ref_loop_ms", floats (Array.to_list r.host));
    ]
  in
  (metrics, [ ("samples", Obs.Json.Obj sample_counts); ("unadjusted", Obs.Json.Obj unadjusted) ])

let per_layer w r =
  let l = r.layers and sp = r.ba_spans in
  let k = float_of_int (max 1 l.count) in
  let per ns = L.secs_of_ns ns /. k in
  let n = float_of_int (List.length r.samples) in
  let mean f = sum f r.samples /. n in
  let is_ba = match w.kind with Ba _ -> true | Check -> false in
  let observed = match w.kind with Ba { observed; _ } -> observed | Check -> false in
  let backend = match w.kind with Ba { backend; _ } -> Some backend | Check -> None in
  let vrf =
    match backend with
    | Some backend ->
        let calls = match backend with Vrf.Mock -> 2000 | _ -> 12 in
        Some (L.vrf_micro ~backend ~n:w.n ~calls)
    | None -> None
  in
  let bignum =
    match backend with Some (Vrf.Dleq { qbits }) -> Some (L.bignum_micro ~qbits) | _ -> None
  in
  let v f = match vrf with Some m -> f m *. 1e6 | None -> 0.0 in
  let mc ns = if is_ba then 0.0 else per ns in
  let run_self = sp.run - sp.handler in
  let metrics =
    [
      metric "sim.run_s" (per sp.run) "s";
      metric "sim.run_self_s" (per run_self) "s";
      metric "sim.broadcast_s" (per sp.bcast_run) "s";
      metric "sim.deliveries" (float_of_int sp.deliveries /. k) "count";
      metric "sim.broadcasts" (float_of_int sp.broadcasts /. k) "count";
      metric "core.handle_s" (per sp.handle_run) "s";
      metric "core.handle_ns"
        (if sp.handle_calls = 0 then 0.0
         else float_of_int sp.handle_run /. float_of_int sp.handle_calls)
        "ns";
      metric "core.propose_s" (per (sp.propose + sp.bcast_propose)) "s";
      metric "core.build_s" (per sp.build) "s";
      metric "vrf.verifies" (float_of_int l.verifies /. k) "count";
      metric "vrf.memo_hit_ratio"
        (if l.memo_lookups = 0 then 0.0
         else float_of_int l.memo_hits /. float_of_int l.memo_lookups)
        "ratio";
      metric "vrf.prove_us" (v (fun m -> m.L.prove)) "us";
      metric "vrf.verify_us" (v (fun m -> m.L.verify)) "us";
      metric "vrf.sign_us" (v (fun m -> m.L.sign)) "us";
      metric "vrf.verify_sig_us" (v (fun m -> m.L.verify_sig)) "us";
      metric "vrf.warm_s" (if is_ba then Stats.median r.warm else 0.0) "s";
      metric "bignum.powm_us" (match bignum with Some (p, _) -> p *. 1e6 | None -> 0.0) "us";
      metric "bignum.mul_ns" (match bignum with Some (_, m) -> m *. 1e9 | None -> 0.0) "ns";
      metric "obs.observe_s" (l.observe_s /. k) "s";
      metric "obs.export_s" (l.export_s /. k) "s";
      metric "obs.hook_s" (if observed then per sp.hooks else 0.0) "s";
      metric "obs.events_kept" (float_of_int l.kept /. k) "count";
      metric "obs.events_dropped" (float_of_int l.dropped /. k) "count";
      metric "mc.step_s" (mc L.mc_spans.step) "s";
      metric "mc.clone_s" (mc L.mc_spans.clone) "s";
      metric "mc.encode_s" (mc L.mc_spans.encode) "s";
      metric "mc.search_self_s"
        (mc (l.mc_total - L.mc_spans.step - L.mc_spans.clone - L.mc_spans.encode))
        "s";
      metric "mc.transitions" (float_of_int l.transitions /. k) "count";
      metric "gc.minor_words" (mean (fun s -> s.minor)) "words";
      metric "gc.major_words" (mean (fun s -> s.major)) "words";
      metric "gc.major_collections" (mean (fun s -> float_of_int s.major_collections)) "count";
      metric "gc.pause_s" (mean (fun s -> s.pause)) "s";
      metric "host.ref_loop_ms" (Stats.median (Array.to_list r.host)) "ms";
      metric "trace.overhead" (l.traced_s /. l.workload_s) "ratio";
      metric "trace.span_gap"
        (if sp.run = 0 then 0.0
         else float_of_int (sp.run - run_self - sp.handle_run - sp.bcast_run) /. float_of_int sp.run)
        "ratio";
    ]
  in
  ( metrics,
    [
      ("samples", Obs.Json.Obj [ ("traced_instances", Obs.Json.Int l.count) ]);
      ("gc_events_lost", Obs.Json.Int r.gc_events_lost);
    ] )

(* ------------------------------- main -------------------------------- *)

let usage =
  "usage: main.exe --workload (ba-dleq|ba-mock|ba-observed|check-benor) --seed N --seconds S \
   --trace 0|1 [--commit C]"

let parse argv =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> Ok acc
    | arg :: _ -> Error (Printf.sprintf "unexpected argument %S" arg)
  in
  match go [] (List.tl (Array.to_list argv)) with
  | Error e -> Error e
  | Ok kvs -> (
      let get k = List.assoc_opt k kvs in
      let int_of k = Option.bind (get k) int_of_string_opt in
      let known = [ "workload"; "seed"; "seconds"; "trace"; "commit" ] in
      match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
      | Some (k, _) -> Error (Printf.sprintf "unknown option --%s" k)
      | None -> (
          match
            ( Option.bind (get "workload") (fun name ->
                  List.find_opt (fun w -> w.name = name) workloads),
              int_of "seed",
              int_of "seconds",
              int_of "trace" )
          with
          | Some w, Some seed, Some seconds, Some trace
            when seconds >= 1 && (trace = 0 || trace = 1) ->
              Ok (w, seed, seconds, trace = 1, Option.value (get "commit") ~default:"unknown")
          | _ -> Error usage))

let () =
  match parse Sys.argv with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok (w, seed, seconds, traced, commit) ->
      let rate = if traced then w.traced_per_second else w.per_second in
      let count = max 1 (int_of_float (Float.round (rate *. float_of_int seconds))) in
      let attempted = count in
      let provenance extra =
        Obs.Json.Obj
          ([
             ("schema", Obs.Json.Str "perfbench.provenance/1");
             ("workload", Obs.Json.Str w.name);
             ("seed", Obs.Json.Int seed);
             ("seconds", Obs.Json.Int seconds);
             ("trace", Obs.Json.Bool traced);
             ("commit", Obs.Json.Str commit);
             ("ocaml", Obs.Json.Str Sys.ocaml_version);
             ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
             ("instances", Obs.Json.Int count);
           ]
          @ extra)
      in
      match run_workload w ~seed ~count ~traced with
      | exception Check_failed msg ->
          prerr_endline ("perfbench: check failed: " ^ msg);
          print_endline (Obs.Json.to_string (provenance [ ("error", Obs.Json.Str msg) ]));
          print_endline
            (Report.to_line { Report.correct = false; attempted; failed = 0; metrics = [] });
          exit 1
      | r ->
          let metrics, extra = if traced then per_layer w r else end_to_end w r in
          let failed = List.length (List.filter (fun s -> not s.decided) r.samples) in
          print_endline
            (Obs.Json.to_string
               (provenance
                  (("host_ref_loop_ms", Obs.Json.Float (Stats.median (Array.to_list r.host)))
                  :: extra)));
          print_endline (Report.to_line { Report.correct = true; attempted; failed; metrics })
