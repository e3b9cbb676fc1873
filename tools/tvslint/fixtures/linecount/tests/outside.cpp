// Outside src/: not counted.
int outside = 0;
