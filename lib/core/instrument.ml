(* The metrics attachment resolves every series it writes to a handle
   once, so a send or a delivery costs a few field updates: per interned
   tag (by physical equality first, as [Sim.Ledger] interns phases) and
   sender class, per pid, per round, and one handle per histogram.  Sends
   come through the engine's compact hook, once per broadcast and weighted
   by its envelope count, which keeps lazy broadcast expansion.  Every
   series is the per-envelope count it always was: word values are
   integers, so [count * words] sums exactly. *)

module M = Obs.Metrics

type tag_cells = {
  tag : string;
  sent_msgs : M.counter array;  (* by class: 0 correct, 1 byz *)
  sent_words : M.counter array;
  words_per_msg : M.histo;
  delivered_msgs : M.counter;
}

let classes = [| "correct"; "byz" |]

let rec find_same tag = function
  | c :: rest -> if c.tag == tag then c else find_same tag rest
  | [] -> raise_notrace Not_found

let rec find_equal tag = function
  | c :: rest -> if String.equal c.tag tag then c else find_equal tag rest
  | [] -> raise_notrace Not_found

let tag_cells metrics tag =
  let labels = [ ("tag", tag) ] in
  let by_class name =
    Array.map (fun cls -> M.counter metrics ~labels:(("class", cls) :: labels) name) classes
  in
  {
    tag;
    sent_msgs = by_class "sent_msgs";
    sent_words = by_class "sent_words";
    words_per_msg = M.histo metrics ~labels "words_per_msg";
    delivered_msgs = M.counter metrics ~labels "delivered_msgs";
  }

(* Rounds past this are counted through handles made on the spot: a
   Byzantine round number cannot grow the cache without bound. *)
let max_cached_round = 1 lsl 16

let attach eng ~metrics ~tag_of ?round_of () =
  let tags = ref [] in
  let cells_of tag =
    match find_same tag !tags with
    | c -> c
    | exception Not_found -> (
        match find_equal tag !tags with
        | c -> c
        | exception Not_found ->
            let c = tag_cells metrics tag in
            tags := c :: !tags;
            c)
  in
  let pid_counter name =
    Array.init (Sim.Engine.n eng) (fun pid ->
        M.counter metrics ~labels:[ ("pid", string_of_int pid) ] name)
  in
  let proc_msgs = pid_counter "proc_sent_msgs" and proc_words = pid_counter "proc_sent_words" in
  let round_counters r =
    let labels = [ ("round", string_of_int r) ] in
    (M.counter metrics ~labels "round_msgs", M.counter metrics ~labels "round_words")
  in
  let rounds = ref [||] in
  let round_cells r =
    if r < 0 || r >= max_cached_round then round_counters r
    else begin
      if r >= Array.length !rounds then begin
        let len = ref (max 8 (Array.length !rounds)) in
        while r >= !len do len := 2 * !len done;
        let old = !rounds in
        rounds :=
          Array.init !len (fun i -> if i < Array.length old then old.(i) else round_counters i)
      end;
      !rounds.(r)
    end
  in
  Sim.Engine.on_send_meta eng (fun ~src ~dst:_ ~count ~id:_ ~depth:_ ~words ~correct m ->
      let c = cells_of (tag_of m) in
      let cls = if correct then 0 else 1 in
      let total = count * words in
      M.add c.sent_msgs.(cls) count;
      M.add c.sent_words.(cls) total;
      M.add proc_msgs.(src) count;
      M.add proc_words.(src) total;
      (match round_of with
      | Some f ->
          let msgs, round_words = round_cells (f m) in
          M.add msgs count;
          M.add round_words total
      | None -> ());
      M.record_many c.words_per_msg ~count (float_of_int words));
  let delivered_to_faulty = M.counter metrics "delivered_to_faulty" in
  let latency_steps = M.histo metrics "delivery_latency_steps" in
  let latency_vtime = M.histo metrics "delivery_latency_vtime" in
  let causal_depth = M.histo metrics "causal_depth" in
  Sim.Engine.on_deliver eng (fun e ->
      M.add (cells_of (tag_of e.Sim.Envelope.payload)).delivered_msgs 1;
      if not (Sim.Engine.is_correct eng e.Sim.Envelope.dst) then M.add delivered_to_faulty 1;
      M.record latency_steps (float_of_int (Sim.Engine.step eng - e.Sim.Envelope.sent_step));
      M.record latency_vtime (Sim.Engine.now eng -. e.Sim.Envelope.sent_now);
      M.record causal_depth (float_of_int e.Sim.Envelope.depth));
  let corruptions = M.counter metrics "corruptions" in
  Sim.Engine.on_corrupt eng (fun _pid -> M.add corruptions 1)

let attach_ba eng ~metrics = attach eng ~metrics ~tag_of:Ba.tag_of_msg ~round_of:Ba.round_of_msg ()
let attach_coin eng ~metrics = attach eng ~metrics ~tag_of:Coin.tag_of_msg ()
let attach_whp_coin eng ~metrics = attach eng ~metrics ~tag_of:Whp_coin.tag_of_msg ()
let attach_approver eng ~metrics = attach eng ~metrics ~tag_of:Approver.tag_of_msg ()

(* Ledger attachments: the flat word-complexity accumulator, tagged with
   the same phase names the metrics attachment uses so the two views line up. *)
let attach_ba_ledger eng ledger =
  Sim.Ledger.attach eng ledger ~tag_of:Ba.tag_of_msg ~round_of:Ba.round_of_msg ()

let attach_coin_ledger eng ledger = Sim.Ledger.attach eng ledger ~tag_of:Coin.tag_of_msg ()

let attach_whp_coin_ledger eng ledger =
  Sim.Ledger.attach eng ledger ~tag_of:Whp_coin.tag_of_msg ()

let attach_approver_ledger eng ledger =
  Sim.Ledger.attach eng ledger ~tag_of:Approver.tag_of_msg ()

let params_json (p : Params.t) =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int p.Params.n);
      ("f", Obs.Json.Int p.Params.f);
      ("epsilon", Obs.Json.Float p.Params.epsilon);
      ("d", Obs.Json.Float p.Params.d);
      ("lambda", Obs.Json.Int p.Params.lambda);
      ("w", Obs.Json.Int p.Params.w);
      ("b", Obs.Json.Int p.Params.b);
    ]

let run_result_json = function
  | Sim.Engine.All_done -> Obs.Json.Str "all_done"
  | Sim.Engine.Quiescent -> Obs.Json.Str "quiescent"
  | Sim.Engine.Step_limit -> Obs.Json.Str "step_limit"

let outcome_json (o : Runner.outcome) =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int o.Runner.n);
      ("decided", Obs.Json.Int (List.length o.Runner.decisions));
      ("all_decided", Obs.Json.Bool o.Runner.all_decided);
      ("agreement", Obs.Json.Bool o.Runner.agreement);
      ("rounds", Obs.Json.Int o.Runner.rounds);
      ("words", Obs.Json.Int o.Runner.words);
      ("msgs", Obs.Json.Int o.Runner.msgs);
      ("depth", Obs.Json.Int o.Runner.depth);
      ("vtime", Obs.Json.Float o.Runner.vtime);
      ("steps", Obs.Json.Int o.Runner.steps);
      ("result", run_result_json o.Runner.result);
    ]

(* ------------------------- ledger documents -------------------------- *)

let cell_fields (c : Sim.Ledger.cell) =
  [
    ("correct_msgs", Obs.Json.Int c.Sim.Ledger.correct_msgs);
    ("correct_words", Obs.Json.Int c.Sim.Ledger.correct_words);
    ("byz_msgs", Obs.Json.Int c.Sim.Ledger.byz_msgs);
    ("byz_words", Obs.Json.Int c.Sim.Ledger.byz_words);
    ("delivered", Obs.Json.Int c.Sim.Ledger.delivered);
  ]

let cell_json c = Obs.Json.Obj (cell_fields c)

(* One sweep entry: grand total plus the per-round breakdown, each round
   carrying its per-phase cells.  Zero cells are skipped (the ledger's
   fold already does), so documents stay proportional to activity, not to
   phase-count x round-count. *)
let ledger_json ~protocol ~n ?(extra = []) ledger =
  let rounds =
    (* fold visits rounds ascending, phases first-seen within a round —
       collect per-round phase lists in that order. *)
    let by_round =
      Sim.Ledger.fold ledger ~init:[] ~f:(fun acc ~phase ~round cell ->
          match acc with
          | (r, cells) :: rest when r = round -> (r, (phase, cell) :: cells) :: rest
          | _ -> (round, [ (phase, cell) ]) :: acc)
    in
    List.rev_map
      (fun (round, rev_cells) ->
        let cells = List.rev rev_cells in
        let total =
          List.fold_left
            (fun acc (_, c) -> Sim.Ledger.add_cell acc c)
            Sim.Ledger.zero_cell cells
        in
        Obs.Json.Obj
          (("round", Obs.Json.Int round)
           :: cell_fields total
          @ [
              ( "phases",
                Obs.Json.List
                  (List.map
                     (fun (phase, c) ->
                       Obs.Json.Obj (("phase", Obs.Json.Str phase) :: cell_fields c))
                     cells) );
            ]))
      by_round
  in
  Obs.Json.Obj
    ([ ("protocol", Obs.Json.Str protocol); ("n", Obs.Json.Int n) ]
    @ extra
    @ [ ("total", cell_json (Sim.Ledger.total ledger)); ("rounds", Obs.Json.List rounds) ])

let ledger_doc ?(extra = []) entries =
  Obs.Json.Obj
    (("schema", Obs.Json.Str Obs.Export.ledger_schema)
     :: extra
    @ [ ("sweep", Obs.Json.List entries) ])

let metrics_schema = "coincidence.metrics/1"

let metrics_doc ~params ?(outcomes = []) ?(spans = []) ~metrics () =
  let span_records = List.concat_map (fun s -> Obs.Json.to_list (Obs.Span.to_json s)) spans in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str metrics_schema);
      ("params", params_json params);
      ("runs", Obs.Json.List outcomes);
      ("metrics", Obs.Metrics.to_json metrics);
      ("spans", Obs.Json.List span_records);
    ]
