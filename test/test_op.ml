(* Unit and model tests for the per-operation lifecycle state machine:
   whatever interleaving of transitions a schedule produces, an op
   terminates exactly once, never retries past its budget, and a
   deadline always terminates it. *)

open Paso

let mk ?deadline ?retry_budget () =
  let eng = Sim.Engine.create () in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create () in
  let ctl = Op.ctl ~engine:eng ~stats ~trace { Op.deadline; retry_budget } in
  (eng, stats, ctl)

(* --- deterministic cases ------------------------------------------------- *)

let test_defaults_schedule_nothing () =
  let eng, stats, ctl = mk () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let expired = ref false in
  Op.arm_deadline op ~on_expire:(fun () -> expired := true);
  Sim.Engine.run eng;
  Alcotest.(check bool) "no deadline event" false !expired;
  Alcotest.(check bool) "still live" false (Op.terminal op);
  Alcotest.(check bool) "unbounded retry granted" true (Op.retry op (fun () -> ()));
  Alcotest.(check bool) "finish succeeds" true (Op.finish op ~ok:true);
  Alcotest.(check int) "no deadline stat" 0
    (Sim.Stats.count stats "paso.op.deadline_expired")

let test_deadline_expires () =
  let eng, stats, ctl = mk ~deadline:5.0 () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let expired = ref 0 in
  Op.arm_deadline op ~on_expire:(fun () -> incr expired);
  Sim.Engine.run eng;
  Alcotest.(check int) "on_expire once" 1 !expired;
  Alcotest.(check string) "failed" "failed" (Op.stage_name (Op.stage op));
  Alcotest.(check int) "counted" 1 (Sim.Stats.count stats "paso.op.deadline_expired");
  (* The late real response must be refused. *)
  Alcotest.(check bool) "late finish refused" false (Op.finish op ~ok:true);
  Alcotest.(check string) "still failed" "failed" (Op.stage_name (Op.stage op))

let test_finish_cancels_deadline () =
  let eng, _, ctl = mk ~deadline:5.0 () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let expired = ref 0 in
  Op.arm_deadline op ~on_expire:(fun () -> incr expired);
  Alcotest.(check bool) "finish first" true (Op.finish op ~ok:true);
  Sim.Engine.run eng;
  Alcotest.(check int) "deadline never fires" 0 !expired;
  Alcotest.(check string) "done" "done" (Op.stage_name (Op.stage op))

let test_budget_refuses () =
  let _, stats, ctl = mk ~retry_budget:2 () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  Alcotest.(check bool) "retry 1" true (Op.retry op (fun () -> ()));
  Alcotest.(check bool) "retry 2" true (Op.retry op (fun () -> ()));
  Alcotest.(check bool) "retry 3 refused" false (Op.retry op (fun () -> ()));
  Alcotest.(check int) "two granted" 2 (Op.retries op);
  Alcotest.(check int) "exhaustion counted" 1
    (Sim.Stats.count stats "paso.op.budget_exhausted")

let test_retry_requeries_in_same_event () =
  let eng, stats, ctl = mk () in
  let op = Op.make ctl ~machine:0 ~op_id:1 in
  let fired = ref [] in
  (* A granted retry runs its requery at once: nothing is scheduled and
     the clock does not move, however many retries nest. *)
  Alcotest.(check bool) "retry granted" true
    (Op.retry op (fun () ->
         fired := Sim.Engine.now eng :: !fired;
         ignore (Op.retry op (fun () -> fired := Sim.Engine.now eng :: !fired))));
  Alcotest.(check (list (float 0.0))) "both requeries ran at t=0" [ 0.0; 0.0 ] !fired;
  Alcotest.(check int) "no event scheduled" 0 (Sim.Engine.pending eng);
  Alcotest.(check string) "retrying" "retrying" (Op.stage_name (Op.stage op));
  Alcotest.(check int) "two retries counted" 2 (Sim.Stats.count stats "paso.op.retries")

(* --- model: random transition schedules ---------------------------------- *)

type cmd = C_fan | C_collect | C_finish_ok | C_finish_fail | C_retry

let gen_cmds =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (oneofl [ C_fan; C_collect; C_finish_ok; C_finish_fail; C_retry ]))

let apply op = function
  | C_fan ->
      Op.fan_out op;
      0
  | C_collect ->
      Op.collecting op;
      0
  | C_finish_ok -> if Op.finish op ~ok:true then 1 else 0
  | C_finish_fail -> if Op.finish op ~ok:false then 1 else 0
  | C_retry ->
      ignore (Op.retry op (fun () -> ()));
      0

let model_terminates_once =
  QCheck2.Test.make ~name:"an op terminates at most once" ~count:300 gen_cmds
    (fun cmds ->
      let _, _, ctl = mk () in
      let op = Op.make ctl ~machine:0 ~op_id:1 in
      let finishes = List.fold_left (fun acc c -> acc + apply op c) 0 cmds in
      if finishes > 1 then
        QCheck2.Test.fail_reportf "terminated %d times" finishes;
      (* Once terminal, the stage is frozen whatever else arrives. *)
      if Op.terminal op then begin
        let frozen = Op.stage op in
        List.iter (fun c -> ignore (apply op c)) cmds;
        if Op.stage op <> frozen then
          QCheck2.Test.fail_reportf "terminal stage moved from %s to %s"
            (Op.stage_name frozen)
            (Op.stage_name (Op.stage op))
      end;
      true)

let model_budget_respected =
  QCheck2.Test.make ~name:"retries never exceed the budget" ~count:300
    QCheck2.Gen.(pair (int_range 0 5) gen_cmds)
    (fun (budget, cmds) ->
      let _, _, ctl = mk ~retry_budget:budget () in
      let op = Op.make ctl ~machine:0 ~op_id:1 in
      List.iter (fun c -> ignore (apply op c)) cmds;
      if Op.retries op > budget then
        QCheck2.Test.fail_reportf "%d retries granted against budget %d"
          (Op.retries op) budget;
      true)

let model_deadline_terminates =
  QCheck2.Test.make ~name:"an armed deadline always terminates the op" ~count:300
    QCheck2.Gen.(pair (float_range 0.1 100.0) gen_cmds)
    (fun (d, cmds) ->
      let eng, _, ctl = mk ~deadline:d () in
      let op = Op.make ctl ~machine:0 ~op_id:1 in
      let expirations = ref 0 in
      Op.arm_deadline op ~on_expire:(fun () -> incr expirations);
      List.iter (fun c -> ignore (apply op c)) cmds;
      Sim.Engine.run eng;
      if not (Op.terminal op) then QCheck2.Test.fail_report "op still live";
      (* The expiry callback fires only when the deadline itself did
         the terminating, and then exactly once. *)
      if !expirations > 1 then
        QCheck2.Test.fail_reportf "on_expire ran %d times" !expirations;
      if !expirations = 1 && Op.stage op <> Op.Failed then
        QCheck2.Test.fail_report "expired op not Failed";
      true)

(* --- system level: the knobs actually gate real operations --------------- *)

let test_system_deadline_fails_insert () =
  (* The fan-out round trip costs at least one α; a deadline far below
     it must fail the op (exactly one completion) and refuse the late
     response. *)
  let sys =
    System.create { System.default_config with n = 4; op_deadline = Some 1e-6 }
  in
  let completions = ref 0 in
  System.insert sys ~machine:0
    [ Value.Sym "t"; Value.Int 1 ]
    ~on_done:(fun () -> incr completions);
  System.run sys;
  Alcotest.(check int) "exactly one completion" 1 !completions;
  Alcotest.(check bool) "expiry counted" true
    (Sim.Stats.count (System.stats sys) "paso.op.deadline_expired" >= 1)

let test_system_defaults_off () =
  let sys = System.create { System.default_config with n = 4 } in
  let got = ref None in
  System.insert sys ~machine:0 [ Value.Sym "t"; Value.Int 1 ] ~on_done:(fun () -> ());
  System.run sys;
  System.read sys ~machine:1
    (Template.headed "t" [ Template.Any ])
    ~on_done:(fun r -> got := r);
  System.run sys;
  Alcotest.(check bool) "read satisfied" true (!got <> None);
  let stats = System.stats sys in
  Alcotest.(check int) "no expiries" 0 (Sim.Stats.count stats "paso.op.deadline_expired");
  Alcotest.(check int) "no exhaustion" 0
    (Sim.Stats.count stats "paso.op.budget_exhausted")

let () =
  Alcotest.run "op"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "defaults schedule nothing" `Quick
            test_defaults_schedule_nothing;
          Alcotest.test_case "deadline expires" `Quick test_deadline_expires;
          Alcotest.test_case "finish cancels deadline" `Quick
            test_finish_cancels_deadline;
          Alcotest.test_case "budget refuses" `Quick test_budget_refuses;
          Alcotest.test_case "retry requeries in the same event" `Quick
            test_retry_requeries_in_same_event;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest model_terminates_once;
          QCheck_alcotest.to_alcotest model_budget_respected;
          QCheck_alcotest.to_alcotest model_deadline_terminates;
        ] );
      ( "system",
        [
          Alcotest.test_case "deadline fails a real insert" `Quick
            test_system_deadline_fails_insert;
          Alcotest.test_case "defaults leave ops untouched" `Quick
            test_system_defaults_off;
        ] );
    ]
