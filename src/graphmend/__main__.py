from .pipeline import main

raise SystemExit(main())
