(* The reference listener relation of a compiled plan, decided pair by
   pair over every (role, action): role [r] listens to action [a] when
   observing [a] can change its state — a script step waits on [a], a
   persona duty's incoming transfer is [a], or the role is an escrow
   that [a] (a [Do]) credits or whose notification waits on [a]. This
   is the definition [Compile] builds its flat listener table from in
   one pass; here it costs roles × actions. Tests only. *)

module C = Trust_core.Compile

let listens (p : C.t) r a =
  let pi, role = p.C.roles.(r) in
  let waits steps = Array.exists (fun (st : C.step) -> st.C.cond = a) steps in
  match role with
  | C.Script { steps; persona } ->
    waits steps || Array.exists (fun (pd : C.persona_deal) -> pd.C.pc_incoming = a) persona
  | C.Escrow e -> waits e.C.es_notifies || (p.C.act_kind.(a) = 0 && p.C.act_credit.(a) = pi)

(* per action, its listening roles in role order *)
let listeners (p : C.t) =
  let roles = List.init (Array.length p.C.roles) Fun.id in
  Array.init p.C.n_actions (fun a -> List.filter (fun r -> listens p r a) roles)
