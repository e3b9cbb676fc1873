// Line-count fixture: 5 non-blank, non-comment lines (test_tvslint.py).

/* A block comment
   over two lines. */
int a = 1;  // trailing comment
const char* s = "// inside a string literal";
/* leading */ int b = 2;

    // an indented comment
int c = a /* inside */ + b;
const char* t = "/* nor this */";
/**/
