from logit_anchor.cli import main
raise SystemExit(main())
