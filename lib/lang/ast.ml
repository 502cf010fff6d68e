type role = Consumer | Producer | Broker

type asset = Pays of int | Gives of string

type leg = { party : string Loc.located; asset : asset }

type side = Buyer | Seller

type cref = { deal : string Loc.located; side : side }

type decl =
  | Principal of { name : string Loc.located; role : role }
  | Trusted of string Loc.located
  | Deal of {
      id : string Loc.located;
      first : leg;
      second : leg;
      via : string Loc.located;
      deadline : int option;
    }
  | Priority of { owner : string Loc.located; target : cref }
  | Split of { owner : string Loc.located; target : cref }
  | Trust of { truster : string Loc.located; trustee : string Loc.located }
  | Relay of string Loc.located
  | Request of {
      id : string Loc.located;
      buyer : string Loc.located;
      good : string;
      seller : string Loc.located;
      price : int;
    }
  | Persona of { trusted : string Loc.located; principal : string Loc.located }

type program = decl list
