(* Golden digests of the observation exports of a BA run: the metrics
   document, the JSONL event stream and the Chrome trace that
   `ba --emit-metrics/--emit-events/--emit-trace` write, at n = 32 under
   each corruption mode.  The expected digests were taken from the
   observer layer as it stood before the count-weighted metric handles
   and the flat trace ring replaced it, so any byte those rewrites change
   shows here.  The small-capacity column makes the ring wrap (inside a
   broadcast) before the run ends. *)

let n = 32
let params = lazy (Core.Params.make_exn ~strict:false ~epsilon:0.25 ~d:0.04 ~lambda:n ~n ())
let keyring = lazy (Vrf.Keyring.create ~backend:Vrf.Mock ~n ~seed:"golden" ())

let corruptions () =
  let f = (Lazy.force params).Core.Params.f in
  [
    ("honest", Core.Runner.Honest);
    ("crash", Core.Runner.Crash_random f);
    ("adaptive", Core.Runner.Crash_adaptive_first f);
    ("silent", Core.Runner.Byz_silent_random f);
  ]

let md5 s = Digest.to_hex (Digest.string s)

(* One observed run, rendered as the CLI renders a single trial; returns
   the three digests and the ring's kept/dropped counts. *)
let render ~corruption ~seed ~capacity =
  let params = Lazy.force params in
  let metrics = Obs.Metrics.create () in
  let trace = Sim.Trace.create ~capacity () in
  let span = ref None in
  let probe eng =
    Core.Instrument.attach_ba eng ~metrics;
    Sim.Trace.attach trace eng;
    let sp = Obs.Span.create (Obs.Span.engine_clock eng) in
    Obs.Span.begin_span sp "trial-0";
    span := Some sp
  in
  let inputs = Array.init n (fun p -> (p + seed) mod 2) in
  let o =
    Core.Runner.run_ba ~probe ~corruption ~keyring:(Lazy.force keyring) ~params ~inputs ~seed ()
  in
  let sp = Option.get !span in
  Obs.Span.end_span sp;
  let doc =
    Core.Instrument.metrics_doc ~params ~outcomes:[ Core.Instrument.outcome_json o ] ~spans:[ sp ]
      ~metrics ()
  in
  let events = Obs.Export.jsonl_to_string (Obs.Export.trace_jsonl ~run:seed trace) in
  let chrome =
    Obs.Export.chrome_trace
      (Obs.Export.chrome_process_name ~pid:0 "trial 0"
       :: (Obs.Export.chrome_of_trace ~pid:0 trace @ Obs.Export.chrome_of_spans ~pid:0 sp))
  in
  ( md5 (Obs.Json.to_string doc),
    md5 events,
    md5 (Obs.Json.to_string chrome),
    Sim.Trace.length trace,
    Sim.Trace.dropped trace )

let seeds = [ 3; 4 ]
let capacities = [ 100_000; 4_099 ]

(* (mode, seed, capacity) -> (metrics, events, chrome, kept, dropped) *)
let expected =
  [
    (("honest", 3, 100000), ("f98f6aad9ef7fa03a510676279b0fe3c", "6d2f4f5f1a88bd28777988f729eaca8c", "9844447704b219d5ee079faf96ce4cbd", 37566, 0));
    (("honest", 3, 4099), ("f98f6aad9ef7fa03a510676279b0fe3c", "a6a389dcfc43f48943cb34c7889c9373", "4016df7fd5ed7a11cf2ead690bfeb704", 4099, 33467));
    (("honest", 4, 100000), ("aec50170f37a2e35dac75b120cd440f4", "54dc93024c81555c7e45a9cfbde8724a", "dd8966ada0c68fea287c5d1473852785", 38185, 0));
    (("honest", 4, 4099), ("aec50170f37a2e35dac75b120cd440f4", "15dac99a52b9a24de90f5884b780c6a7", "1428943d0c627bd8b0e961232e7f50ba", 4099, 34086));
    (("crash", 3, 100000), ("38e3991fca5754ed9bb73796dd31fa22", "940fb1666c4e092cac4c9fb05cf09a78", "142b2a06bb257f3bcbeba7e8fc70be05", 35761, 0));
    (("crash", 3, 4099), ("38e3991fca5754ed9bb73796dd31fa22", "59c605a2110b85061c95d6fe84244fd4", "078bdcd5aa757e84a981b63e7f501b3a", 4099, 31662));
    (("crash", 4, 100000), ("d72269dcd47be9763e6f37c0f200d80a", "f452d988b440b145450f7710e0d2aa13", "0382c8b422a16d5c6477c23f267fc58f", 35827, 0));
    (("crash", 4, 4099), ("d72269dcd47be9763e6f37c0f200d80a", "dee989c664b3e64ccb4cf625d1d11666", "5f9ffb48c991c352afde6f8b7f6da9e3", 4099, 31728));
    (("adaptive", 3, 100000), ("923de29a1d0d676507a7ad2e02555b13", "ce4474cd27cc88d1eafebc0e9db99993", "a12e6a75f23e3753569b74bc225124bd", 35715, 0));
    (("adaptive", 3, 4099), ("923de29a1d0d676507a7ad2e02555b13", "fdf0d8851f7ca4b253f780bb2907dd5d", "bc3e00458bd87220b8d4296a39d4283b", 4099, 31616));
    (("adaptive", 4, 100000), ("e807b7611bacfb282cfa9d13303f5576", "c7e51fbfe35a61a027e22a5c9458a70c", "446089156b7f927f058af08483716c1b", 35855, 0));
    (("adaptive", 4, 4099), ("e807b7611bacfb282cfa9d13303f5576", "ac3fa0ba9eb3ff759657d7764deef485", "3a9719081dea215b3ace9f4838d00015", 4099, 31756));
    (("silent", 3, 100000), ("38e3991fca5754ed9bb73796dd31fa22", "940fb1666c4e092cac4c9fb05cf09a78", "142b2a06bb257f3bcbeba7e8fc70be05", 35761, 0));
    (("silent", 3, 4099), ("38e3991fca5754ed9bb73796dd31fa22", "59c605a2110b85061c95d6fe84244fd4", "078bdcd5aa757e84a981b63e7f501b3a", 4099, 31662));
    (("silent", 4, 100000), ("d72269dcd47be9763e6f37c0f200d80a", "f452d988b440b145450f7710e0d2aa13", "0382c8b422a16d5c6477c23f267fc58f", 35827, 0));
    (("silent", 4, 4099), ("d72269dcd47be9763e6f37c0f200d80a", "dee989c664b3e64ccb4cf625d1d11666", "5f9ffb48c991c352afde6f8b7f6da9e3", 4099, 31728));
  ]

let test_golden () =
  List.iter
    (fun (mode, corruption) ->
      List.iter
        (fun seed ->
          List.iter
            (fun capacity ->
              let what = Printf.sprintf "%s seed %d capacity %d" mode seed capacity in
              let m, e, c, kept, dropped = render ~corruption ~seed ~capacity in
              match List.assoc_opt (mode, seed, capacity) expected with
              | None -> Alcotest.failf "%s: no golden entry" what
              | Some (m', e', c', kept', dropped') ->
                  Alcotest.(check string) (what ^ ": metrics doc") m' m;
                  Alcotest.(check string) (what ^ ": events jsonl") e' e;
                  Alcotest.(check string) (what ^ ": chrome trace") c' c;
                  Alcotest.(check int) (what ^ ": events kept") kept' kept;
                  Alcotest.(check int) (what ^ ": events dropped") dropped' dropped)
            capacities)
        seeds)
    (corruptions ())

let suite = [ Alcotest.test_case "observation exports match golden digests" `Quick test_golden ]
