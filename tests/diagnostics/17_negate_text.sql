SELECT -name FROM customer
